import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chronocycle import complexes, rips
from chronocycle.complexes import (
    F2,
    REAL,
    Chain,
    Filtration,
    boundary,
    boundary_matrix,
    orient_chain,
)
from chronocycle.embedding import LabeledPointCloud
from chronocycle.rips import RipsConfig, build_rips

from _f2 import (
    assert_same_filtration,
    dense_boundary,
    naive_boundary,
    shuffled_levels,
    simplex_index,
)
from conftest import bent_cylinder, labeled_complex


def test_chain_drops_zeros():
    c = Chain(1, {0: 1.0, 1: 0.0, 2: -2.0})
    assert c.support == [0, 2]
    assert bool(c)
    assert not Chain(1, {})
    assert Chain(1, {0: 1}) == Chain(1, {0: 1.0})
    assert Chain(1, {0: 1}) != Chain(2, {0: 1})


def triangle_filtration():
    return Filtration(
        [((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
         ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
         ((0, 1, 2), 2.0)]
    )


def test_filtration_order_and_lookup():
    # deliberately shuffled input; the order is (value, dim, lex)
    f = Filtration(
        [((0, 1, 2), 2.0), ((1, 2), 1.0), ((2,), 0.0), ((0, 1), 1.0),
         ((0,), 0.0), ((0, 2), 1.0), ((1,), 0.0)]
    )
    assert list(f.simplices) == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    ]
    assert f.max_dim == 2
    assert len(f) == 7
    assert list(f.dim_indices(1)) == [3, 4, 5]
    assert f.n_simplices(2) == 1
    assert len(f.dim_indices(5)) == 0
    assert f.value(6) == 2.0


def test_filtration_vertices_before_edges_at_equal_value():
    f = Filtration([((0,), 1.0), ((1,), 1.0), ((0, 1), 1.0)])
    assert list(f.simplices) == [(0,), (1,), (0, 1)]


def test_filtration_normalizes_vertex_tuples():
    f = Filtration(
        [((0,), 0.0), ([1], 0.0), ((np.int64(0), np.int64(1)), 1.0)]
    )
    assert list(f.simplices) == [(0,), (1,), (0, 1)]
    assert all(type(v) is int for s in f.simplices for v in s)


def test_simplex_validation():
    # a simplex is a strictly increasing tuple of non-negative vertex ids
    f = Filtration(closed_simplex((0, 3, 7)))
    assert f.simplices[-1] == (0, 3, 7)
    assert f.n_simplices(2) == 1
    with pytest.raises(ValueError, match="at least one vertex"):
        Filtration([((), 0.0)])
    with pytest.raises(ValueError, match="increasing"):
        Filtration([((1,), 0.0), ((2,), 0.0), ((2, 1), 1.0)])
    with pytest.raises(ValueError, match="increasing"):
        Filtration([((1,), 0.0), ((1, 1), 1.0)])
    with pytest.raises(ValueError, match="non-negative"):
        Filtration([((0,), 0.0), ((-1, 0), 1.0)])


def test_filtration_validation_errors():
    with pytest.raises(ValueError):
        Filtration([])
    with pytest.raises(ValueError, match="missing"):
        Filtration([((0,), 0.0), ((0, 1), 1.0)])
    with pytest.raises(ValueError, match="after"):
        Filtration([((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        Filtration([((0,), 0.0), ((0,), 1.0)])
    edge_twice = [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((0, 1), 2.0)]
    with pytest.raises(ValueError, match="duplicate"):
        Filtration(edge_twice)  # in the top dimension
    with pytest.raises(ValueError, match="duplicate"):
        Filtration(edge_twice + [((2,), 0.0), ((0, 2), 1.0), ((1, 2), 1.0),
                                 ((0, 1, 2), 3.0)])
    with pytest.raises(ValueError, match="non-negative"):
        Filtration([((0,), -1.0)])
    with pytest.raises(ValueError, match="non-negative"):
        Filtration([((0,), 0.0), ((1,), float("nan")), ((0, 1), 1.0)])
    with pytest.raises(ValueError, match="non-negative"):
        Filtration([((-1,), 0.0)])
    with pytest.raises(ValueError, match="increasing"):
        Filtration([((0,), 0.0), ((1,), 0.0), ((1, 0), 1.0)])
    # a vertex of a simplex that is not itself a 0-simplex
    with pytest.raises(ValueError, match="missing"):
        Filtration([((0,), 0.0), ((0, 10**10), 1.0)])
    with pytest.raises(ValueError, match="missing"):
        Filtration([((0, 1), 1.0)])
    # vertex ids are integers; a float id is not truncated into one
    with pytest.raises(ValueError, match="integer"):
        Filtration([((0,), 0.0), ((1.7,), 0.0), ((0, 1.7), 1.0)])
    with pytest.raises(ValueError, match="integer"):
        Filtration(levels=[(np.array([[0.0], [2.9]]), [0, 0])])
    with pytest.raises(ValueError, match="integer"):
        Filtration(levels=[(np.array([[0.0], [np.nan]]), [0, 0])])
    with pytest.raises(ValueError, match="integer"):
        Filtration([(("a",), 0.0)])
    # duplicates inside one level, adjacent or not in the input
    with pytest.raises(ValueError, match="duplicate"):
        Filtration(levels=[(np.array([[0], [1], [0]]), [0, 0, 0])])
    with pytest.raises(ValueError, match="duplicate"):
        Filtration(levels=[(np.array([[0], [1]]), [0, 0]),
                           (np.array([[0, 1], [0, 1]]), [1, 1])])
    with pytest.raises(ValueError, match="duplicate"):
        Filtration(levels=[(np.array([[0], [1]]), [0, 0]),
                           (np.array([[0, 1]]), [1]), (np.array([[0, 1]]), [2])])
    # exactly one input form, and each level an (m, k+1) array with m values
    with pytest.raises(TypeError, match="exactly one"):
        Filtration()
    with pytest.raises(TypeError, match="exactly one"):
        Filtration([((0,), 0.0)], levels=[(np.array([[0]]), [0.0])])
    for level in ((np.array([0, 1]), [0.0, 0.0]), (np.array([[0], [1]]), [0.0]),
                  (np.array([[0], [1]]), [[0.0, 0.0]])):
        with pytest.raises(ValueError, match=r"\(m, k\+1\) vertex array and m values"):
            Filtration(levels=[level])


def test_filtration_takes_integer_valued_ids_of_any_dtype():
    f = Filtration(levels=[(np.array([[2.0], [0.0]]), [0, 0]),
                           (np.array([[0, 2]], dtype=np.uint8), [1.0])])
    g = Filtration([((0,), 0.0), ((2.0,), 0.0), ((np.int32(0), 2), 1.0)])
    assert list(f.simplices) == list(g.simplices) == [(0,), (2,), (0, 2)]
    assert all(type(v) is int for s in f.simplices for v in s)


def closed_simplex(top):
    """Every face of the simplex on ``top``, entering at its dimension."""
    return [
        (s, float(k - 1))
        for k in range(1, len(top) + 1)
        for s in itertools.combinations(top, k)
    ]


@pytest.mark.parametrize("top", [(0, 1, 2, 3_000_000), (0, 1, 10**10)])
def test_filtration_with_large_vertex_ids(top):
    # face keys are built from vertex ranks, not from the ids themselves
    f = Filtration(closed_simplex(top))
    assert f.simplices[-1] == top
    assert f.n_simplices(1) == len(top) * (len(top) - 1) // 2
    p = len(top) - 1
    rows = f.dim_indices(p - 1)
    assert [f.simplices[rows[i]] for i in f.faces(p)[0]] == [
        top[:i] + top[i + 1 :] for i in range(len(top))
    ]
    real = boundary(Chain(p, {len(f) - 1: 1}), f, REAL)
    assert not boundary(real, f, REAL)


def test_boundary_matrix_single_edge():
    f = Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
    bd = boundary_matrix(f, 0, F2)
    assert bd.matrix.shape == (2, 1)
    assert bd.matrix.toarray().tolist() == [[1.0], [1.0]]
    sgn = boundary_matrix(f, 0, REAL)
    # dropping position 0 of (0,1) leaves (1,) with sign +1
    assert sgn.matrix.toarray().tolist() == [[-1.0], [1.0]]


def test_boundary_matrix_triangle_signs():
    f = triangle_filtration()
    bd = boundary_matrix(f, 1, REAL)
    assert bd.matrix.shape == (3, 1)
    # rows are edges (0,1), (0,2), (1,2) in filtration order
    assert bd.matrix.toarray()[:, 0].tolist() == [1.0, -1.0, 1.0]
    assert list(bd.rows) == [3, 4, 5]
    assert list(bd.cols) == [6]
    with pytest.raises(ValueError):
        boundary_matrix(f, 1, "f3")
    with pytest.raises(ValueError, match="no boundary below dimension 0"):
        boundary_matrix(f, -1)


def reference_boundary_matrix(f, p, mode):
    """The per-face dictionary-lookup loop the vectorized builder replaced."""
    rows = f.dim_indices(p)
    cols = f.dim_indices(p + 1)
    row_local = {int(g): i for i, g in enumerate(rows)}
    index = simplex_index(f)
    data, ri, ci = [], [], []
    for j, g in enumerate(cols):
        s = f.simplices[g]
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            ri.append(row_local[index[face]])
            ci.append(j)
            data.append(1.0 if mode == F2 else float((-1) ** i))
    return sp.csc_matrix(
        (data, (ri, ci)), shape=(len(rows), len(cols)), dtype=float
    )


def boundary_cases():
    yield bent_cylinder()
    yield labeled_complex()[0]
    rng = np.random.default_rng(11)
    for n, max_dim in ((7, 2), (9, 3), (12, 2), (30, 1)):
        pts = 2.0 * rng.random((n, 2))
        pc = LabeledPointCloud(points=pts, labels=np.arange(n, dtype=float))
        yield build_rips(pc, RipsConfig(max_dim=max_dim))


def test_boundary_matrix_matches_reference_loop():
    for f in boundary_cases():
        for p in range(f.max_dim + 1):
            for mode in (F2, REAL):
                got = boundary_matrix(f, p, mode).matrix
                ref = reference_boundary_matrix(f, p, mode)
                assert got.shape == ref.shape
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.data, ref.data)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    max_dim=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_boundary_block_is_a_face_table(n, max_dim, seed):
    # column j of a block is the table row faces[j], ascending, with its
    # entries signs[j]; the scipy matrix read from it is the dense block
    pts = 2.0 * np.random.default_rng(seed).random((n, 2))
    pc = LabeledPointCloud(points=pts, labels=np.arange(n, dtype=float))
    f = build_rips(pc, RipsConfig(max_dim=max_dim))
    for p in range(f.max_dim + 1):
        dense, rows, cols = dense_boundary(f, p)
        for mode in (F2, REAL):
            bd = boundary_matrix(f, p, mode)
            assert bd.rows.tolist() == rows and bd.cols.tolist() == cols
            assert bd.faces.shape == bd.signs.shape == (len(cols), p + 2)
            assert np.all(np.diff(bd.faces, axis=1) > 0)
            for j, g in enumerate(cols):
                assert bd.faces[j].tolist() == np.flatnonzero(dense[:, j]).tolist()
                want = naive_boundary(f, {g: 1}, mode)
                assert dict(zip(bd.rows[bd.faces[j]].tolist(),
                                bd.signs[j].tolist())) == want
            matrix = bd.matrix
            assert matrix.has_sorted_indices and matrix.shape == dense.shape
            assert np.array_equal(np.abs(matrix.toarray()), dense)
            if mode == F2:
                assert np.all(bd.signs == 1)


def test_chain_boundary_builds_only_its_own_columns(monkeypatch):
    # a chain's boundary reads the face index of its own simplices and
    # builds no boundary block at all
    def refuse(*args):
        raise AssertionError("boundary block built")

    f = bent_cylinder()
    monkeypatch.setattr(complexes, "_boundary_columns", refuse)
    edges = f.dim_indices(1)[[0, 2, 3]]
    c = Chain(1, dict.fromkeys(edges.tolist(), 1))
    for mode in (F2, REAL):
        assert boundary(c, f, mode).entries == naive_boundary(f, c.entries, mode)


def test_boundary_matrix_is_cached_read_only():
    f = triangle_filtration()
    bd = boundary_matrix(f, 1, REAL)
    again = boundary_matrix(f, 1, REAL)
    assert again is not bd
    assert (again.matrix != bd.matrix).nnz == 0
    bd.matrix.data[0] = 7.0  # each call's matrix is its own
    assert again.matrix.data[0] == 1.0
    assert boundary_matrix(f, 1, REAL).matrix.data[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        f.faces(2)[0, 0] = 0


def test_filtration_arrays_are_read_only():
    f = triangle_filtration()
    arrays = [f.values, f.dims] + [f.dim_indices(p) for p in range(f.max_dim + 1)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
    # outside the dimension range: empty, read-only, and of the in-range dtypes
    for p in (-1, f.max_dim + 1):
        empty = f.dim_indices(p)
        assert empty.shape == (0,) and empty.dtype == f.dim_indices(0).dtype
        assert not empty.flags.writeable
    for p in (-1, 0, f.max_dim + 1):
        empty = f.faces(p)
        assert empty.shape == (0, max(p, 0) + 1)
        assert empty.dtype == f.faces(1).dtype == np.int32
        assert not empty.flags.writeable


def test_levels_are_owned_and_read_only():
    # one int64 array per dimension, already in lexicographic order: the
    # form a filtration could keep as it is, and must not
    items = closed_simplex((0, 1, 2, 3))
    given_levels = [
        (np.array([s for s, _ in items if len(s) == k], dtype=np.int64),
         np.array([v for s, v in items if len(s) == k]))
        for k in range(1, 5)
    ]
    f = Filtration(levels=given_levels)
    before = list(f.simplices)
    assert [a.shape for a in f.levels] == [(4, 1), (6, 2), (4, 3), (1, 4)]
    for a in (*f.levels, f.rows):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
    assert f.rows.dtype == np.int32
    # simplex g is row rows[g] of level dims[g]
    assert [tuple(f.levels[d][r].tolist()) for d, r in zip(f.dims, f.rows)] == before
    for verts, _ in given_levels:
        assert not any(np.shares_memory(verts, a) for a in f.levels)
        verts[...] = 0
    assert list(f.simplices) == before


def wide_filtration(spread):
    """A 10-simplex with all its faces plus 89 isolated vertices: rank keys
    of 10 of its 100 vertex ranks do not fit in int64."""
    items = [(c, 0.0) for k in range(1, 12)
             for c in itertools.combinations(range(11), k)]
    items += [((v,), 0.0) for v in range(11, 100)]
    return spread_ids(items, np.random.default_rng(1)) if spread else items


@pytest.mark.parametrize("spread", [False, True])
def test_wide_filtration_finds_faces_past_int64_keys(spread):
    items = wide_filtration(spread)
    rng = np.random.default_rng(2)
    shuffled = [items[i] for i in rng.permutation(len(items))]
    wide_row = next(s for s in shuffled if len(s[0]) == 10)
    f = Filtration(items)
    assert f.max_dim == 10 and len(f) == 2047 + 89
    assert_sorted_key_order(f, items)
    for build in (Filtration, rank_key_filtration):
        assert_same_filtration(f, build(items))
        assert_same_filtration(f, build(shuffled))
        assert_same_filtration(f, build(levels=shuffled_levels(items, rng)))
        # int32 ids on the record-key path
        assert_same_filtration(f, build(levels=int32_levels(shuffled_levels(items, rng))))
        # record keys are always sorted, so a repeat is found wherever it is
        with pytest.raises(ValueError, match="duplicate"):
            build(shuffled[:500] + [wide_row] + shuffled[500:])


def int32_levels(levels, writeable=True):
    """The same levels with int32 vertex arrays."""
    out = []
    for verts, values in levels:
        verts = np.asarray(verts, dtype=np.int32)
        verts.flags.writeable = writeable
        out.append((verts, values))
    return out


def test_int32_ids_past_int32_keys():
    # 1,400 vertices: a triangle's base-n rank key passes 2**31 from vertex
    # 1,096 on, so keys made from int32 ranks must be widened to int64 before
    # they are combined, or the order check and the sort would wrap
    n = 1400
    tops = [(0, 1, n - 1), (5, 1096, 1097), (n - 3, n - 2, n - 1)]
    faces = {s: k - 1.0 for t in tops for k in (2, 3) for s in itertools.combinations(t, k)}
    items = [((v,), 0.0) for v in range(n)] + sorted(faces.items())
    assert 1096 * n**2 > 2**31
    f = Filtration(items)
    assert f.simplices[-1] == (n - 3, n - 2, n - 1)
    rng = np.random.default_rng(4)
    in_order = [
        (np.array([s for s, _ in items if len(s) == k]), [v for s, v in items if len(s) == k])
        for k in (1, 2, 3)
    ]
    for build in (Filtration, rank_key_filtration):
        assert_same_filtration(f, build(levels=int32_levels(shuffled_levels(items, rng))))
        # one read-only int32 array per dimension, in order, is kept as it is
        given = int32_levels(in_order, writeable=False)
        g = build(levels=given)
        assert_same_filtration(f, g)
        for (verts, _), kept in zip(given, g.levels):
            assert kept.dtype == np.int32 and np.shares_memory(verts, kept)
    assert all(a.dtype == np.int64 for a in f.levels)


def test_wide_filtration_reports_a_missing_face():
    items = [s for s in wide_filtration(False) if s[0] != tuple(range(1, 11))]
    for build in (Filtration, rank_key_filtration):
        with pytest.raises(ValueError) as err:
            build(items)
        assert str(err.value) == (
            f"face {tuple(range(1, 11))} of {tuple(range(11))} missing from filtration"
        )


def test_simplices_view_slices():
    f = triangle_filtration()
    every = list(f.simplices)
    assert f.simplices[0:2] == [(0,), (1,)]
    for sl in (slice(None), slice(3, None), slice(-2, None), slice(None, None, -3),
               slice(5, 2), slice(1, 100, 2)):
        got = f.simplices[sl]
        assert type(got) is list and got == every[sl]
    assert f.simplices[-1] == (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_filtration_order_matches_sorted_key(n, seed):
    rng = np.random.default_rng(seed)
    items = random_closed_complex(n, rng)
    order = rng.permutation(len(items))
    assert_sorted_key_order(Filtration([items[i] for i in order]), items)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_levels_match_simplices_input(n, seed):
    rng = np.random.default_rng(seed)
    items = random_closed_complex(n, rng)
    f = Filtration(levels=shuffled_levels(items, rng))
    assert_sorted_key_order(f, items)
    order = rng.permutation(len(items))
    assert_same_filtration(f, Filtration([items[i] for i in order]))


def spread_ids(items, rng, offset=0):
    """The same complex with vertex v renamed to the v-th of n sorted random
    ids from offset on, so the ids are not 0..n-1."""
    n = sum(1 for s, _ in items if len(s) == 1)
    ids = (offset + np.sort(rng.choice(10**6, size=n, replace=False))).tolist()
    return [(tuple(ids[v] for v in s), value) for s, value in items]


def rank_key_filtration(*args, **kwargs):
    """A filtration built with the dense face tables off: every face is
    found by ``searchsorted`` over the rank keys of the level below."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_TABLE_MAX_ENTRIES", 0)
        return Filtration(*args, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    spread=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_edge_table_matches_rank_keys(n, spread, seed):
    rng = np.random.default_rng(seed)
    items = random_closed_complex(n, rng)
    if spread:
        items = spread_ids(items, rng)
    f = Filtration(items)
    assert_same_filtration(f, rank_key_filtration(items))
    for p in range(1, f.max_dim + 1):
        assert f.faces(p).dtype == np.int32


def addresses(f):
    """Everything a filtration holds but its vertex ids, as bytes."""
    faces = [f.faces(p) for p in range(1, f.max_dim + 1)]
    return [a.tobytes() for a in (f.values, f.dims, f.rows, *faces)]


def test_edge_table_matches_rank_keys_on_rips():
    # Rips levels arrive in order; shuffled levels, simplices= input and ids
    # past 2**31 must give the same filtration on both lookup paths
    rng = np.random.default_rng(3)
    for max_dim in (1, 2, 3):
        pc = LabeledPointCloud(points=rng.random((12, 2)), labels=np.arange(12.0))
        levels = rips._rips_levels(pc.points, RipsConfig(max_dim=max_dim))
        f = Filtration(levels=levels)
        assert f.max_dim == max_dim + 1
        items = [(tuple(r), x) for s, v in levels for r, x in zip(s.tolist(), v.tolist())]
        spread = spread_ids(items, rng, offset=2**31)
        g = Filtration(spread)
        assert min(s[0] for s in g.simplices) >= 2**31
        # a monotone renaming of the vertices moves no simplex
        assert addresses(g) == addresses(f)
        for build in (Filtration, rank_key_filtration):
            assert_same_filtration(f, build(levels=levels))
            for case, ref in ((items, f), (spread, g)):
                assert_same_filtration(ref, build(levels=shuffled_levels(case, rng)))
                assert_same_filtration(ref, build([case[i] for i in rng.permutation(len(case))]))


@pytest.mark.parametrize("items, message", [
    # a triangle without one of its edges
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
      ((0, 1, 2), 1.0)], "face (1, 2) of (0, 1, 2) missing from filtration"),
    # a triangle before one of its edges
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
      ((1, 2), 2.0), ((0, 1, 2), 1.0)],
     "face (1, 2) enters at 2.0 after coface (0, 1, 2) at 1.0"),
    # the same on vertex ids that are not 0..n-1
    ([((3,), 0.0), ((7,), 0.0), ((11,), 0.0), ((3, 7), 1.0), ((7, 11), 1.0),
      ((3, 7, 11), 1.0)], "face (3, 11) of (3, 7, 11) missing from filtration"),
    ([((3,), 0.0), ((7,), 0.0), ((11,), 0.0), ((3, 7), 1.0), ((3, 11), 1.5),
      ((7, 11), 1.0), ((3, 7, 11), 1.0)],
     "face (3, 11) enters at 1.5 after coface (3, 7, 11) at 1.0"),
    # an edge on a vertex past the last id, and on one between ids
    ([((0,), 0.0), ((0, 10**10), 1.0)],
     "face (10000000000,) of (0, 10000000000) missing from filtration"),
    ([((0,), 0.0), ((4,), 0.0), ((0, 2), 1.0)], "face (2,) of (0, 2) missing from filtration"),
    # a tetrahedron before one of its triangles
    (closed_simplex((0, 1, 2, 3))[:-2] + [((1, 2, 3), 4.0), ((0, 1, 2, 3), 3.0)],
     "face (1, 2, 3) enters at 4.0 after coface (0, 1, 2, 3) at 3.0"),
    # a vertex that is not a 0-simplex, in input out of order: named in the
    # first face that holds it, of the first simplex in lexicographic order
    ([((1,), 0.0), ((0,), 0.0), ((1, 2), 1.0), ((0, 1), 1.0)],
     "face (2,) of (1, 2) missing from filtration"),
    ([((6,), 0.0), ((4,), 0.0), ((4, 6), 1.0), ((2, 4), 1.0)],
     "face (2,) of (2, 4) missing from filtration"),
    ([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((0, 1, 7), 1.0), ((0, 1, 5), 1.0)],
     "face (1, 5) of (0, 1, 5) missing from filtration"),
    # a face that enters a hair after its coface is refused, not ordered
    # after it
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
      ((1, 2), 1 + 5e-13), ((0, 1, 2), 1.0)],
     "face (1, 2) enters at 1.0000000000005 after coface (0, 1, 2) at 1.0"),
])
def test_face_errors_are_the_same_on_both_paths(items, message):
    for build in (Filtration, rank_key_filtration):
        with pytest.raises(ValueError) as err:
            build(items)
        assert str(err.value) == message


def random_closed_complex(n, rng):
    """(vertices, value) pairs of a random closed complex on n vertices with
    few distinct values, so ties between dimensions and within a dimension
    are common."""
    value = {(v,): float(rng.integers(0, 2)) for v in range(n)}
    for k in range(2, n + 1):
        for s in itertools.combinations(range(n), k):
            faces = [s[:i] + s[i + 1:] for i in range(k)]
            if all(fc in value for fc in faces) and rng.random() < 0.7:
                value[s] = max(value[fc] for fc in faces) + float(rng.integers(0, 2))
    return list(value.items())


def assert_sorted_key_order(f, items):
    """f holds items in (value, dim, lex) order, with the right face index."""
    expected = sorted(items, key=lambda t: (t[1], len(t[0]), t[0]))
    assert list(f.simplices) == [s for s, _ in expected]
    assert f.values.tolist() == [v for _, v in expected]
    assert f.dims.tolist() == [len(s) - 1 for s, _ in expected]
    for p in range(1, f.max_dim + 1):
        rows = f.dim_indices(p - 1)
        for j, g in enumerate(f.dim_indices(p)):
            s = f.simplices[g]
            assert [f.simplices[rows[i]] for i in f.faces(p)[j]] == [
                s[:i] + s[i + 1 :] for i in range(len(s))
            ]


def assert_float_sort_order(f, items):
    """f's arrays equal the ones a stable float ``argsort`` of the values
    gives, over the dimensions in ascending order, each in lexicographic
    order; and each face is the local index of its vertex tuple."""
    by_dim = {}
    for s, v in items:
        by_dim.setdefault(len(s) - 1, []).append((tuple(s), float(v)))
    lex = [sorted(by_dim[p]) for p in range(len(by_dim))]
    values = np.array([v for level in lex for _, v in level])
    dims = np.repeat(np.arange(len(lex), dtype=np.int32), [len(level) for level in lex])
    rows = np.concatenate([np.arange(len(level), dtype=np.int32) for level in lex])
    order = np.argsort(values, kind="stable")
    assert f.values.tobytes() == values[order].tobytes()
    assert f.dims.tobytes() == dims[order].tobytes()
    assert f.rows.tobytes() == rows[order].tobytes()
    for p in range(1, len(lex)):
        local = {lex[p - 1][r][0]: j for j, r in enumerate(rows[order][dims[order] == p - 1])}
        expected = [[local[s[:i] + s[i + 1:]] for i in range(p + 1)]
                    for s in (lex[p][r][0] for r in rows[order][dims[order] == p])]
        assert f.faces(p).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    max_dim=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_rips_order_matches_a_float_sort(n, d, max_dim, seed):
    # integer coordinates: many distances tie, within and across dimensions
    points = np.random.default_rng(seed).integers(0, 4, (n, d)).astype(float)
    levels = rips._rips_levels(points, RipsConfig(max_dim=max_dim))
    items = [(tuple(r), x) for s, v in levels for r, x in zip(s.tolist(), v.tolist())]
    assert_float_sort_order(Filtration(levels=levels), items)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_simplices_order_matches_a_float_sort(n, seed):
    # higher simplices enter with their youngest face or at a fresh value
    rng = np.random.default_rng(seed)
    items = random_closed_complex(n, rng)
    shuffled = [items[i] for i in rng.permutation(len(items))]
    for build in (Filtration, rank_key_filtration):
        assert_float_sort_order(build(shuffled), items)


def test_order_past_65536_distinct_values():
    # all 79,800 edges on 400 vertices at distinct values, some tied twice,
    # and triangles entering with an edge or later: the ranks need a second
    # 16-bit digit
    rng = np.random.default_rng(5)
    n = 400
    edges = np.array(list(itertools.combinations(range(n), 2)))
    edge_values = rng.permutation(len(edges)) / 7.0
    edge_values[::9] = edge_values[1::9][: len(edge_values[::9])]
    vertex_values = np.zeros(n)
    value = {(v,): x for v, x in enumerate(vertex_values.tolist())}
    value.update(zip(map(tuple, edges.tolist()), edge_values.tolist()))
    for s in itertools.combinations(range(12), 3):
        top = max(value[s[:i] + s[i + 1:]] for i in range(3))
        value[s] = top + float(rng.integers(0, 2)) * 1e5
    items = list(value.items())
    assert len(set(value.values())) > 2**16
    levels = [(np.arange(n)[:, None], vertex_values), (edges, edge_values),
              (np.array([s for s in value if len(s) == 3]),
               [x for s, x in value.items() if len(s) == 3])]
    assert_float_sort_order(Filtration(levels=levels), items)


def test_fresh_triangle_values_between_edge_values():
    # triangles that enter after all their edges at values between the edge
    # values: ranks given to the vertices and edges must move up for them,
    # and their 300-odd distinct values outgrow 8-bit ranks
    rng = np.random.default_rng(11)
    edges = list(itertools.combinations(range(21), 2))
    value = {(v,): 0.0 for v in range(21)}
    value.update(zip(edges, (rng.permutation(len(edges)) / 7.0).tolist()))
    for s in itertools.combinations(range(12), 3):
        top = max(value[s[:i] + s[i + 1:]] for i in range(3))
        value[s] = top + float(rng.integers(0, 2)) * rng.uniform(0.01, 0.1)
    items = list(value.items())
    assert 256 < len(set(value.values())) < 2**16
    shuffled = [items[i] for i in rng.permutation(len(items))]
    for build in (Filtration, rank_key_filtration):
        assert_float_sort_order(build(shuffled), items)


def test_boundary_squares_to_zero_matrix():
    f = triangle_filtration()
    b0 = boundary_matrix(f, 0, REAL).matrix
    b1 = boundary_matrix(f, 1, REAL).matrix
    assert np.allclose((b0 @ b1).toarray(), 0.0)
    m0 = boundary_matrix(f, 0, F2).matrix.toarray() % 2
    m1 = boundary_matrix(f, 1, F2).matrix.toarray() % 2
    assert np.all((m0 @ m1) % 2 == 0)


def test_boundary_chain_triangle():
    f = triangle_filtration()
    c = Chain(2, {6: 1})
    d = boundary(c, f, F2)
    assert d.support == [3, 4, 5]
    d2 = boundary(d, f, F2)
    assert not d2
    real = boundary(c, f, REAL)
    assert real.entries == {3: 1.0, 4: -1.0, 5: 1.0}
    assert not boundary(real, f, REAL)


def test_boundary_chain_errors():
    f = triangle_filtration()
    with pytest.raises(ValueError):
        boundary(Chain(0, {0: 1}), f)
    with pytest.raises(ValueError):
        boundary(Chain(2, {3: 1}), f)  # index 3 is an edge, not a triangle
    with pytest.raises(ValueError):
        boundary(Chain(1, {3: 1}), f, "f7")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=9),
    max_dim=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_boundary_matches_tuple_slicing(n, max_dim, seed, data):
    rng = np.random.default_rng(seed)
    pc = LabeledPointCloud(points=rng.random((n, 2)), labels=np.arange(n, dtype=float))
    f = build_rips(pc, RipsConfig(max_dim=max_dim))
    p = data.draw(st.integers(min_value=1, max_value=f.max_dim))
    members = data.draw(
        st.lists(st.sampled_from(f.dim_indices(p).tolist()), unique=True, max_size=12)
    )
    coefs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(members), max_size=len(members))
    )
    c = Chain(p, dict(zip(members, coefs)))
    for mode in (F2, REAL):
        assert boundary(c, f, mode).entries == naive_boundary(f, c.entries, mode)
    # real coefficients: the sums equal, bit for bit, the product of the
    # chain's columns of the boundary matrix with its coefficient vector
    reals = data.draw(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=len(members),
                 max_size=len(members))
    )
    c = Chain(p, dict(zip(members, reals)))
    local = np.searchsorted(f.dim_indices(p), list(c.entries))
    y = boundary_matrix(f, p - 1, REAL).matrix[:, local] @ np.array(
        list(c.entries.values()), dtype=float
    )
    nz = np.flatnonzero(y)
    want = dict(zip(f.dim_indices(p - 1)[nz].tolist(), y[nz].tolist()))
    assert boundary(c, f, REAL).entries == want


def test_f2_boundary_is_real_mod2():
    f = triangle_filtration()
    c = Chain(2, {6: 1})
    real = boundary(c, f, REAL)
    assert all(abs(v) == 1.0 for v in real.entries.values())
    mod2 = Chain(1, {g: 1 for g, v in real.entries.items() if round(v) % 2})
    assert mod2 == boundary(c, f, F2)


# -- orientation lift ---------------------------------------------------------


def square_filtration():
    return Filtration(
        [((i,), 0.0) for i in range(4)]
        + [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 3), 1.0)]
    )


def test_orient_square_loop():
    f = square_filtration()
    c = Chain(1, {g: 1 for g in f.dim_indices(1)})
    lifted = orient_chain(c, f)
    assert set(lifted.entries) == set(c.entries)
    assert all(v in (1.0, -1.0) for v in lifted.entries.values())
    assert not boundary(lifted, f, REAL)


def test_all_ones_lift_is_not_a_cycle():
    # the square loop with every edge at +1 has a nonzero real boundary,
    # so the naive lift would hand the LP a different affine space
    f = square_filtration()
    naive = Chain(1, {g: 1.0 for g in f.dim_indices(1)})
    assert boundary(naive, f, REAL)


def test_orient_two_disjoint_loops():
    tri1 = [((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)]
    tri2 = [((3, 4), 1.0), ((4, 5), 1.0), ((3, 5), 1.0)]
    f = Filtration([((i,), 0.0) for i in range(6)] + tri1 + tri2)
    c = Chain(1, {g: 1 for g in f.dim_indices(1)})
    lifted = orient_chain(c, f)
    assert not boundary(lifted, f, REAL)


def test_orient_figure_eight():
    # two triangles sharing vertex 2: even degree everywhere, two walks
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    f = Filtration(
        [((i,), 0.0) for i in range(5)] + [(e, 1.0) for e in edges]
    )
    c = Chain(1, {g: 1 for g in f.dim_indices(1)})
    lifted = orient_chain(c, f)
    assert not boundary(lifted, f, REAL)
    # vertex 2's edges pair in filtration order, (0, 2) with (1, 2) and
    # (2, 3) with (2, 4), and each triangle's first edge gets +1
    signs = {(0, 1): 1, (0, 2): -1, (1, 2): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1}
    assert lifted.entries == {simplex_index(f)[e]: s for e, s in signs.items()}


def test_orient_rejects_non_cycle_path():
    f = Filtration(
        [((i,), 0.0) for i in range(3)] + [((0, 1), 1.0), ((1, 2), 1.0)]
    )
    c = Chain(1, {g: 1 for g in f.dim_indices(1)})
    with pytest.raises(ValueError, match="cannot orient.*not a cycle"):
        orient_chain(c, f)


def test_orient_tetrahedron_boundary():
    # 2-sphere: all four triangles of the tetrahedron
    verts = range(4)
    simplices = [((i,), 0.0) for i in verts]
    simplices += [(e, 1.0) for e in itertools.combinations(verts, 2)]
    simplices += [(t, 1.0) for t in itertools.combinations(verts, 3)]
    f = Filtration(simplices)
    c = Chain(2, {g: 1 for g in f.dim_indices(2)})
    lifted = orient_chain(c, f)
    assert set(lifted.entries) == set(c.entries)
    assert not boundary(lifted, f, REAL)


def triangles_filtration(tris, value=lambda t: 1.0):
    """The closure of the triangles: vertices at 0, edges at 1."""
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})
    verts = sorted({v for t in tris for v in t})
    return Filtration(
        [((i,), 0.0) for i in verts] + [(e, 1.0) for e in edges]
        + [(t, value(t)) for t in tris]
    )


@pytest.mark.parametrize("late", [None, (0, 1, 3)])
def test_orient_two_tetrahedra_sharing_an_edge(late):
    # four triangles hold edge (0, 1), which the two tetrahedra's boundary
    # 2-spheres share; the pairs there join the two spheres' triangles when
    # (0, 1, 3) enters after (0, 1, 4) and (0, 1, 5)
    tris = [t for v in [(0, 1, 2, 3), (0, 1, 4, 5)] for t in itertools.combinations(v, 3)]
    f = triangles_filtration(tris, lambda t: 2.0 if t == late else 1.0)
    c = Chain(2, {g: 1 for g in f.dim_indices(2)})
    assert len(c.entries) == 8 and not boundary(c, f, F2)
    lifted = orient_chain(c, f)
    assert set(lifted.entries) == set(c.entries)
    assert all(v in (1.0, -1.0) for v in lifted.entries.values())
    assert not boundary(lifted, f, REAL)


def test_orient_rejects_projective_plane():
    # the six-vertex projective plane: an F2 2-cycle with no real lift
    f = triangles_filtration([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])
    c = Chain(2, {g: 1 for g in f.dim_indices(2)})
    assert not boundary(c, f, F2)
    with pytest.raises(ValueError, match="cannot orient.*not orientable"):
        orient_chain(c, f)


def test_chain_ids_of_another_dimension_or_outside_are_named():
    f = square_filtration()  # ids 0-3 vertices, 4-7 edges
    for c, named in [
        (Chain(1, {4: 1, 5: 1, 2: 1}), r"id 2\b.*dimension 0"),
        (Chain(1, {4: 1, 8: 1}), r"id 8 is outside"),
        (Chain(1, {4: 1, -1: 1}), r"id -1 is outside"),
    ]:
        with pytest.raises(ValueError, match=named):
            boundary(c, f)
        with pytest.raises(ValueError, match=named):
            orient_chain(c, f)
    with pytest.raises(ValueError, match=r"id 8 is outside"):
        orient_chain(Chain(0, {0: 1, 8: 1}), f)


def test_orient_rejects_open_surface():
    # two triangles glued along one edge: the rim edges have a single
    # coface each, so no coherent orientation closes the boundary
    simplices = [((i,), 0.0) for i in range(4)]
    simplices += [(e, 1.0) for e in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]]
    simplices += [((0, 1, 2), 1.0), ((1, 2, 3), 1.0)]
    f = Filtration(simplices)
    c = Chain(2, {g: 1 for g in f.dim_indices(2)})
    with pytest.raises(ValueError, match="cannot orient"):
        orient_chain(c, f)


def test_orient_zero_and_dim0():
    f = square_filtration()
    with pytest.raises(ValueError):
        orient_chain(Chain(1, {}), f)
    c0 = orient_chain(Chain(0, {0: 1, 2: 1}), f)
    assert c0.entries == {0: 1.0, 2: 1.0}


# -- randomized structure -----------------------------------------------------


def full_two_skeleton(dist):
    """Filtration with simplex value = max pairwise entry, built here so the
    construction under test is exercised against an independent rule."""
    n = len(dist)
    simplices = [((i,), 0.0) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        simplices.append(((i, j), float(dist[i][j])))
    for i, j, k in itertools.combinations(range(n), 3):
        v = max(dist[i][j], dist[i][k], dist[j][k])
        simplices.append(((i, j, k), float(v)))
    return Filtration(simplices)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    data=st.data(),
)
def test_random_two_skeletons(n, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=9),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    dist = np.zeros((n, n))
    it = iter(entries)
    for i, j in itertools.combinations(range(n), 2):
        dist[i, j] = dist[j, i] = next(it)
    f = full_two_skeleton(dist)

    # faces never come after cofaces
    index = simplex_index(f)
    for g, s in enumerate(f.simplices):
        if len(s) == 1:
            continue
        for i in range(len(s)):
            assert index[s[:i] + s[i + 1 :]] < g

    b1 = boundary_matrix(f, 0, REAL).matrix
    b2 = boundary_matrix(f, 1, REAL).matrix
    assert np.allclose((b1 @ b2).toarray(), 0.0)

    # every triangle boundary is an orientable 1-cycle
    tri = int(f.dim_indices(2)[0])
    c = boundary(Chain(2, {tri: 1}), f, F2)
    lifted = orient_chain(c, f)
    assert not boundary(lifted, f, REAL)
