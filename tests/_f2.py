"""Independent references used to verify the package's Rips expansion,
reduction and LP results.  Everything here is deliberately naive (tuple
expansion, dense numpy mod-2 matrices, textbook algorithms) so it shares no
code paths with the library.
"""

import math

import numpy as np
from scipy.spatial.distance import pdist, squareform


def rank2(M) -> int:
    """Rank of a 0/1 matrix over F2 by straightforward elimination."""
    A = (np.asarray(M, dtype=np.uint8) % 2).copy()
    if A.size == 0:
        return 0
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] ^= A[r]
        r += 1
        if r == rows:
            break
    return r


def solve2(A, b):
    """One solution of A x = b over F2, or None when inconsistent."""
    A = (np.asarray(A, dtype=np.uint8) % 2).copy()
    b = (np.asarray(b, dtype=np.uint8) % 2).copy()
    rows, cols = A.shape if A.ndim == 2 else (len(A), 0)
    aug = np.hstack([A.reshape(rows, cols), b.reshape(rows, 1)])
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if aug[i, c]:
                piv = i
                break
        if piv is None:
            continue
        aug[[r, piv]] = aug[[piv, r]]
        for i in range(rows):
            if i != r and aug[i, c]:
                aug[i] ^= aug[r]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i, -1]:
            return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x[c] = aug[i, -1]
    return x


def simplex_index(f):
    """{vertex tuple: global index}, the face lookup every helper here uses."""
    return {s: i for i, s in enumerate(f.simplices)}


def naive_boundary(f, entries, mode):
    """Boundary of the chain {global index: coefficient} by tuple slicing:
    the face dropping vertex position i gets sign (-1)**i in "real" mode,
    and the F2 result keeps the faces with an odd coefficient sum."""
    index = simplex_index(f)
    acc = {}
    for g, coef in entries.items():
        s = f.simplices[g]
        for i in range(len(s)):
            face = index[s[:i] + s[i + 1 :]]
            sign = (-1) ** i if mode == "real" else 1
            acc[face] = acc.get(face, 0) + sign * coef
    if mode == "real":
        return {g: float(v) for g, v in acc.items() if v != 0}
    return {g: 1 for g, v in acc.items() if v % 2}


def simplex_list(f, p):
    """(global index, vertex tuple) of the p-simplices, filtration order."""
    return [(int(g), f.simplices[g]) for g in f.dim_indices(p)]


def dense_boundary(f, p, value_cap=None):
    """Dense mod-2 matrix of the boundary taking (p+1)-simplices to
    p-simplices, optionally restricted to simplices with value <= cap."""
    rows = [g for g, _ in simplex_list(f, p)]
    cols = [g for g, _ in simplex_list(f, p + 1)]
    if value_cap is not None:
        rows = [g for g in rows if f.values[g] <= value_cap + 1e-12]
        cols = [g for g in cols if f.values[g] <= value_cap + 1e-12]
    pos = {g: i for i, g in enumerate(rows)}
    index = simplex_index(f)
    M = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, g in enumerate(cols):
        s = f.simplices[g]
        for drop in range(len(s)):
            face = index[s[:drop] + s[drop + 1 :]]
            M[pos[face], j] = 1
    return M, rows, cols


def betti(f, p, t):
    """dim H_p of the subcomplex at filtration value <= t."""
    n_p = sum(1 for g in f.dim_indices(p) if f.values[g] <= t + 1e-12)
    if n_p == 0:
        return 0
    lower, _, _ = dense_boundary(f, p - 1, t) if p >= 1 else (np.zeros((0, n_p)), 0, 0)
    upper, _, _ = dense_boundary(f, p, t)
    return n_p - rank2(lower) - rank2(upper)


def is_cycle(f, support, p):
    """True iff the F2 sum of the given p-simplices has zero boundary."""
    if p == 0:
        return True
    faces = {}
    for g in support:
        s = f.simplices[g]
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1 :]
            faces[face] = faces.get(face, 0) ^ 1
    return all(v == 0 for v in faces.values())


def homologous(f, support_a, support_b, p, value_cap=None):
    """True iff the two F2 cycles differ by a boundary of (p+1)-simplices
    with value <= cap (default: whole complex)."""
    diff = set(support_a) ^ set(support_b)
    if not diff:
        return True
    M, rows, _ = dense_boundary(f, p, value_cap)
    pos = {g: i for i, g in enumerate(rows)}
    b = np.zeros(len(rows), dtype=np.uint8)
    for g in diff:
        if g not in pos:
            return False
        b[pos[g]] = 1
    return solve2(M, b) is not None


def naive_pairs(f):
    """Textbook single-matrix column reduction; returns the multiset of
    (dim, birth, death) with zero-persistence pairs dropped and essentials
    at math.inf.  Independent of the package's per-dimension bitset route."""
    n = len(f.simplices)
    idx = {s: i for i, s in enumerate(f.simplices)}
    cols = []
    for s in f.simplices:
        col = set()
        if len(s) > 1:
            for drop in range(len(s)):
                col.add(idx[s[:drop] + s[drop + 1 :]])
        cols.append(col)
    low_of = {}
    pairs = []
    for j in range(n):
        col = cols[j]
        while col:
            lw = max(col)
            other = low_of.get(lw)
            if other is None:
                break
            col ^= cols[other]
        if col:
            lw = max(col)
            low_of[lw] = j
            b, d = float(f.values[lw]), float(f.values[j])
            if b < d:
                pairs.append((len(f.simplices[lw]) - 1, b, d))
    # essential = simplices whose own column reduced to zero and whose row
    # was never used as a pivot
    for i in range(n):
        if not cols[i] and i not in low_of:
            pairs.append((len(f.simplices[i]) - 1, float(f.values[i]), math.inf))
    return sorted(pairs)


def gray_code_optimum(P, Qhat, c0_support, f, costs):
    """Brute-force minimum support cost over c0 + span{triangle boundaries},
    enumerated with plain Python sets.  Cross-check for lp.oracle_optimal."""
    pos = {int(g): i for i, g in enumerate(P)}
    base = frozenset(pos[g] for g in c0_support)
    index = simplex_index(f)
    cols = []
    for g in Qhat:
        s = f.simplices[int(g)]
        cols.append(
            frozenset(pos[index[s[:k] + s[k + 1 :]]] for k in range(len(s)))
        )
    best_val, best_sup = None, None
    for r in range(1 << len(cols)):
        cur = set(base)
        for k in range(len(cols)):
            if r >> k & 1:
                cur ^= cols[k]
        val = float(np.sort(np.asarray([costs[i] for i in cur], float)).sum()) if cur else 0.0
        if best_val is None or val < best_val:
            best_val, best_sup = val, sorted(int(P[i]) for i in cur)
    return best_val, best_sup


def full_reduction(f):
    """The standard left-to-right reduction of every column of every block,
    with its own face lookup: {p: (r, low, adds)} with R columns as bitsets
    over the local row order, as the package's blocks store them.  Reference
    for the package's cohomology pairing and negative-column reduction."""
    index = simplex_index(f)
    blocks = {}
    for p in range(1, f.max_dim + 1):
        rows, cols = f.dim_indices(p - 1), f.dim_indices(p)
        row_local = {int(g): i for i, g in enumerate(rows)}
        r, low, adds, pivot_of_row = [], [], [], {}
        for j, g in enumerate(cols):
            s = f.simplices[g]
            col = 0
            for i in range(len(s)):
                col |= 1 << row_local[index[s[:i] + s[i + 1 :]]]
            added = []
            while col:
                other = pivot_of_row.get(col.bit_length() - 1)
                if other is None:
                    break
                col ^= r[other]
                added.append(other)
            r.append(col)
            adds.append(added)
            if col:
                low.append(col.bit_length() - 1)
                pivot_of_row[low[-1]] = j
            else:
                low.append(-1)
        blocks[p] = (r, low, adds)
    return blocks


def rips_simplices(points, max_dim, radius=None):
    """(vertex tuple, value) of every Rips simplex through dimension
    max_dim + 1, by growing tuples one vertex at a time; ``radius`` None is
    the enclosing radius.  Values are the parent's value or the distances to
    the new vertex, whichever is larger."""
    pts = np.asarray(points, dtype=float)
    dist = squareform(pdist(pts))
    adj = dist <= (dist.max() if radius is None else radius)
    np.fill_diagonal(adj, False)
    level = [((i,), 0.0) for i in range(len(pts))]
    out = list(level)
    for _ in range(max_dim + 1):
        grown = []
        for verts, val in level:
            common = np.logical_and.reduce(adj[list(verts)])
            for k in np.flatnonzero(common):
                if k > verts[-1]:
                    grown.append(
                        (verts + (int(k),), max(val, float(dist[list(verts), k].max())))
                    )
        if not grown:
            break
        out += grown
        level = grown
    return out
