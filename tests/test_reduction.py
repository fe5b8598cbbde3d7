import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronocycle as cc

from chronocycle.complexes import Filtration, boundary
from chronocycle.embedding import LabeledPointCloud
from chronocycle.reduction import (
    _FIRST_WINDOW,
    _DimReduction,
    _cofacets,
    _cohomology_pairing,
    diagram_to_json,
    full_diagram,
    reduce,
)
from chronocycle.rips import ENCLOSING, RipsConfig, build_rips

from _f2 import (
    betti,
    full_reduction,
    homologous,
    int_cohomology_pairing,
    is_cycle,
    naive_pairs,
    negative_column_reduction,
)
from conftest import bent_cylinder, labeled_complex


def cloud(pts):
    pts = np.asarray(pts, float)
    return LabeledPointCloud(points=pts, labels=np.arange(len(pts), dtype=float))


def as_triples(pairs):
    return sorted((pr.dim, pr.birth, pr.death) for pr in pairs)


def test_single_edge():
    f = Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
    dec = reduce(f)
    zeros = dec.pairs(0)
    assert as_triples(zeros) == [(0, 0.0, 1.0), (0, 0.0, math.inf)]
    finite = zeros[0]
    assert finite.death_simplex == 2
    assert finite.birth_simplex == 1  # the younger vertex dies
    # the representative 0-cycle is the merged endpoint pair
    assert finite.initial_rep.support == [0, 1]
    assert dec.pairs(1) == []


def test_triangle_loop_has_zero_persistence():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    dec = reduce(f)
    # the loop closes and fills at the same value, so nothing survives
    assert dec.pairs(1) == []


def test_square_corners_loop():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    dec = reduce(f)
    ones = dec.pairs(1)
    assert len(ones) == 1
    pr = ones[0]
    assert pr.birth == pytest.approx(1.0)
    assert pr.death == pytest.approx(math.sqrt(2.0))
    # representative is the four unit edges
    sup = {f.simplices[g] for g in pr.initial_rep.support}
    assert sup == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_bent_cylinder_diagram(cylinder):
    dec = reduce(cylinder)
    assert as_triples(dec.pairs(0)) == [(0, 1.0, 2.0), (0, 1.0, math.inf)]
    assert as_triples(dec.pairs(1)) == [(1, 1.0, 2.0), (1, 1.0, math.inf)]
    assert dec.pairs(2) == []
    for pr in dec.pairs(1):
        assert is_cycle(cylinder, pr.initial_rep.support, 1)
        # every support edge is a rim edge
        for g in pr.initial_rep.support:
            assert cylinder.value(g) == 1.0


def test_pairs_dim_range():
    f = Filtration([((0,), 0.0)])
    dec = reduce(f)
    assert dec.pairs(0)[0].death == math.inf
    with pytest.raises(ValueError):
        dec.pairs(1)
    with pytest.raises(ValueError):
        dec.pairs(-1)


def circle_cloud(n, noise, seed):
    rng = np.random.default_rng(seed)
    theta = 2 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = pts + noise * rng.standard_normal(pts.shape)
    return cloud(pts)


def test_noisy_circle_dominant_loop():
    f = build_rips(circle_cloud(30, 0.05, 1), RipsConfig(max_dim=1))
    dec = reduce(f)
    ones = sorted(dec.pairs(1), key=lambda pr: -pr.persistence)
    assert len(ones) >= 1
    top = ones[0]
    if len(ones) > 1:
        assert top.persistence > 3 * ones[1].persistence
    # alive-class counts against independent F2 rank computations
    probe = np.quantile(f.values, [0.1, 0.3, 0.5, 0.7, 0.9])
    for t in probe:
        alive = sum(1 for pr in ones if pr.birth <= t + 1e-12 < pr.death)
        assert alive == betti(f, 1, float(t))


def test_matches_naive_reduction_on_random_clouds():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((7, 2))
        f = build_rips(cloud(pts), RipsConfig(max_dim=2))
        dec = reduce(f)
        assert as_triples(full_diagram(dec, f.max_dim)) == naive_pairs(f)


def test_blocks_verify():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=2))
    dec = reduce(f)
    for p in range(1, f.max_dim + 1):
        assert dec.check_reduced(p)
        assert dec.check_rv(p)


def test_representatives_are_cycles_alive_at_birth():
    f = build_rips(circle_cloud(14, 0.15, 9), RipsConfig(max_dim=1))
    dec = reduce(f)
    for dim in (0, 1):
        for pr in dec.pairs(dim):
            rep = pr.initial_rep
            assert rep.entries, "empty representative"
            assert is_cycle(f, rep.support, dim)
            birth = max(f.values[g] for g in rep.support)
            assert birth == pytest.approx(pr.birth, abs=1e-12)
            if dim >= 1:
                assert not boundary(rep, f)


def test_finite_class_dies_exactly_at_death():
    f = build_rips(circle_cloud(10, 0.1, 2), RipsConfig(max_dim=1))
    dec = reduce(f)
    finite = [pr for pr in dec.pairs(1) if not pr.essential]
    assert finite
    values = np.unique(f.values)
    for pr in finite:
        sup = pr.initial_rep.support
        assert homologous(f, sup, [], 1, value_cap=pr.death)
        prev = values[values < pr.death - 1e-12].max()
        just_before = (prev + pr.death) / 2
        assert not homologous(f, sup, [], 1, value_cap=just_before)


def test_relabeling_leaves_diagram_unchanged():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((8, 2))
    perm = rng.permutation(8)
    f_a = build_rips(cloud(pts), RipsConfig(max_dim=1))
    f_b = build_rips(cloud(pts[perm]), RipsConfig(max_dim=1))
    a = as_triples(full_diagram(reduce(f_a), 1))
    b = as_triples(full_diagram(reduce(f_b), 1))
    assert len(a) == len(b)
    for (da, ba, xa), (db, bb, xb) in zip(a, b):
        assert da == db
        assert ba == pytest.approx(bb, abs=1e-12)
        if math.isinf(xa):
            assert math.isinf(xb)
        else:
            assert xa == pytest.approx(xb, abs=1e-12)


def test_full_diagram_dim_cut(cylinder):
    dec = reduce(cylinder)
    only_zero = full_diagram(dec, max_dim=0)
    assert {pr.dim for pr in only_zero} == {0}
    both = full_diagram(dec, max_dim=cylinder.max_dim)
    assert {pr.dim for pr in both} == {0, 1}
    with pytest.raises(TypeError):
        full_diagram(dec)
    # a max_dim=1 Rips filtration carries triangles only to kill loops;
    # its unkilled triangles are no H2 classes
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    dec = reduce(f)
    assert f.max_dim == 2 and any(pr.dim == 2 for pr in dec.pairs(2))
    assert {pr.dim for pr in full_diagram(dec, 1)} == {0, 1}


def test_diagram_json(cylinder):
    dec = reduce(cylinder)
    pairs = dec.pairs(1)
    rows = diagram_to_json(pairs)
    deaths = sorted((r["death"] is None) for r in rows)
    assert deaths == [False, True]
    # simplex ids only: vertex lists are the caller's, in its own vertex ids
    keys = {"dim", "birth", "death", "birth_simplex", "death_simplex"}
    assert all(set(r) == keys for r in rows)
    assert [(r["birth_simplex"], r["death_simplex"]) for r in rows] == [
        (pr.birth_simplex, pr.death_simplex) for pr in pairs
    ]


def test_pair_ordering_is_stable():
    f = build_rips(circle_cloud(16, 0.2, 13), RipsConfig(max_dim=1))
    dec = reduce(f)
    ones = dec.pairs(1)
    keys = [(pr.birth, pr.death, pr.birth_simplex) for pr in ones]
    assert keys == sorted(keys)


def bit_positions(bits):
    """Ascending positions of the set bits of a Python-int bitset."""
    raw = np.frombuffer(bits.to_bytes(-(-bits.bit_length() // 8), "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def reference_v(adds):
    """Every V column of a block, from the full reduction's logs of all
    columns: V_j is j plus the V columns of the columns added to it."""
    v = []
    for j, log in enumerate(adds):
        col = 1 << j
        for a in log:
            col ^= v[a]
        v.append(col)
    return v


def oracle_pairs(f, blocks, dim):
    """pairs(dim) as (birth, death, birth_simplex, death_simplex, rep
    support) tuples, read off the full reduction's R, low and V logs."""
    out = []
    births = f.dim_indices(dim)
    paired = set()
    if dim + 1 in blocks:
        r, low, _ = blocks[dim + 1]
        cols = f.dim_indices(dim + 1)
        for j, lw in enumerate(low):
            if lw < 0:
                continue
            paired.add(lw)
            b_g, d_g = int(births[lw]), int(cols[j])
            if f.values[b_g] < f.values[d_g]:
                sup = births[bit_positions(r[j])].tolist()
                out.append((f.value(b_g), f.value(d_g), b_g, d_g, sup))
    v = reference_v(blocks[dim][2]) if dim > 0 else None
    for i in range(len(births)):
        if i in paired or (dim > 0 and blocks[dim][0][i]):
            continue
        g = int(births[i])
        sup = [g] if dim == 0 else births[bit_positions(v[i])].tolist()
        out.append((f.value(g), math.inf, g, None, sup))
    return sorted(out, key=lambda t: (t[0], t[1], t[2]))


def assert_matches_full_reduction(f):
    dec = reduce(f)
    ref = full_reduction(f)
    assert sorted(dec.blocks) == sorted(ref)
    for p, (r, low, adds) in ref.items():
        blk = dec.blocks[p]
        assert list(blk.r) == r
        assert blk.low.tolist() == low
        assert len(blk.cols) == len(adds)
        assert dec.check_reduced(p)
        assert dec.check_rv(p)
        # check_rv passes a V off by a cycle; V must be the full reduction's
        assert [blk.v_column(j) for j in range(len(adds))] == reference_v(adds)
        # a column's log is what reducing it again adds, stored or not
        assert [blk._reduce_column(j)[1] for j in range(len(adds))] == adds
    for dim in range(f.max_dim + 1):
        got = [
            (pr.birth, pr.death, pr.birth_simplex, pr.death_simplex,
             pr.initial_rep.support)
            for pr in dec.pairs(dim)
        ]
        assert got == oracle_pairs(f, ref, dim)


def test_fixtures_match_full_reduction():
    assert_matches_full_reduction(bent_cylinder())
    assert_matches_full_reduction(labeled_complex()[0])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    max_dim=st.integers(min_value=1, max_value=3),
    radius=st.sampled_from([ENCLOSING, 0.4, 0.8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_rips_match_full_reduction(n, max_dim, radius, seed):
    rng = np.random.default_rng(seed)
    # distinct points of a coarse grid: tied distances, hence tied values
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4.0
    pts = grid[rng.choice(len(grid), size=n, replace=False)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=max_dim, max_radius=radius))
    assert_matches_full_reduction(f)


def test_block_wider_than_the_first_pivot_window():
    f = build_rips(circle_cloud(40, 0.1, 3), RipsConfig(max_dim=1))
    words = -(-f.n_simplices(2) // 64)
    assert words == 155 > _FIRST_WINDOW
    assert_matches_full_reduction(f)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=16),
    p=st.integers(min_value=1, max_value=3),
    # whole words, partial words, and widths that end just past a word
    width=st.one_of(
        st.sampled_from([63, 64, 65, 128, 129, 192, 256]),
        st.integers(min_value=1, max_value=400),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=12, p=2, width=128, seed=0)
@example(n=12, p=2, width=129, seed=0)
def test_packed_pairing_matches_int_bitsets(n, p, width, seed):
    rng = np.random.default_rng(seed)
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4.0
    pts = grid[rng.choice(len(grid), size=n, replace=False)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=2))
    # a prefix of a block's columns is a block; any cleared mask is a fair
    # input, as both pairings skip cleared rows alike
    faces = f.faces(p)[:width]
    cleared = rng.random(f.n_simplices(p - 1)) < rng.choice([0.0, 0.3, 0.7])
    got = _cohomology_pairing(faces, cleared)
    assert got.dtype == np.int64
    assert got.tolist() == int_cohomology_pairing(faces, cleared).tolist()


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=3, max_value=40),
    n_cols=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n_rows=5, n_cols=0, k=2, seed=0)
@example(n_rows=40, n_cols=1, k=3, seed=0)  # 37 rows without a cofacet
def test_cofacets_are_scipys_csr(n_rows, n_cols, k, seed):
    # each column's k distinct face rows, in no particular order, as the
    # face index holds them; rows that no column names have no cofacet
    rng = np.random.default_rng(seed)
    faces = np.argsort(rng.random((n_cols, n_rows)), axis=1)[:, :k]
    faces = faces.astype(np.int32)
    faces.flags.writeable = False
    cofacets, indptr = _cofacets(faces, n_rows)
    csr = sp.csc_matrix(
        (np.ones(faces.size, dtype=bool), faces.ravel(),
         np.arange(0, faces.size + 1, k)),
        shape=(n_rows, n_cols),
    ).tocsr()
    assert indptr.tolist() == csr.indptr.tolist()
    assert cofacets.tolist() == csr.indices.tolist()
    unnamed = ~np.isin(np.arange(n_rows), faces)
    assert (np.diff(indptr) == 0).tolist() == unnamed.tolist()


def test_positive_columns_hold_no_log():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    blk = reduce(f).blocks[2]
    adds = full_reduction(f)[2][2]
    positive = [j for j, lw in enumerate(blk.low) if lw < 0]
    assert positive
    assert all(j not in blk._logs and blk.r_column(j) == 0 for j in positive)
    for j in positive:
        blk.v_column(j)
        assert j not in blk._logs
        assert blk._reduce_column(j)[1] == adds[j]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    max_dim=st.integers(min_value=1, max_value=3),
    radius=st.sampled_from([ENCLOSING, 0.4, 0.8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_r_view_reads_stored_and_apparent_columns(n, max_dim, radius, seed):
    rng = np.random.default_rng(seed)
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4.0
    pts = grid[rng.choice(len(grid), size=n, replace=False)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=max_dim, max_radius=radius))
    dec = reduce(f)
    ref = full_reduction(f)
    for p, blk in dec.blocks.items():
        r = ref[p][0]
        assert list(blk.r) == r
        assert [blk.r_column(j) for j in range(len(blk.cols))] == r
        # a negative index names no column, so it cannot miss a stored one
        for j in (-1, -len(r), len(r)):
            with pytest.raises(IndexError):
                blk.r_column(j)
        with pytest.raises(AttributeError):
            blk.r = r  # read-only
        # an apparent column is its boundary, read off the face index; only
        # the columns reduced one at a time are stored
        negative = np.flatnonzero(blk.low >= 0)
        apparent = negative[blk.faces[negative].max(axis=1) == blk.low[negative]]
        for j in apparent.tolist():
            assert blk.r_column(j) == sum(1 << i for i in blk.faces[j].tolist())
        assert sorted(blk._reduced) == sorted(set(negative.tolist())
                                              - set(apparent.tolist()))
        # only the columns reduced one at a time hold a V log, and adds is
        # their values; any other column's log is one column reduction
        adds = ref[p][2]
        assert sorted(blk._logs) == sorted(blk._reduced)
        assert all(blk._logs[j] == adds[j] for j in blk._logs)
        assert list(blk.adds) == list(blk._logs.values())
        assert [blk._reduce_column(j)[1] for j in range(len(adds))] == adds


def test_asking_for_v_leaves_the_blocks_unchanged():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    dec = reduce(f)

    def state():
        return {p: ({j: list(a) for j, a in blk._logs.items()},
                    dict(blk._reduced), [list(a) for a in blk.adds])
                for p, blk in dec.blocks.items()}

    before = state()
    # the unkilled triangles are essential, so pairs(2) asks for their V
    assert any(pr.essential and pr.dim == 2
               for pr in full_diagram(dec, f.max_dim))
    for p, blk in dec.blocks.items():
        for j in range(len(blk.cols)):
            dec.v_chain(p, j)
        assert dec.check_rv(p)
    assert state() == before


def test_v_column_outside_the_block_raises_and_stores_nothing():
    # a negative j names no column: it must not reduce the last one and
    # store a log for it
    pts = np.random.default_rng(4).random((12, 2))
    blk = reduce(build_rips(cloud(pts), RipsConfig(max_dim=1))).blocks[1]
    logs = len(blk.adds)
    for j in (-1, len(blk.cols)):
        with pytest.raises(IndexError, match=f"column {j} outside"):
            blk.v_column(j)
    assert len(blk.adds) == logs
    assert blk.v_column(len(blk.cols) - 1) >> (len(blk.cols) - 1) == 1


def test_checks_and_chains_read_the_r_view():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    dec = reduce(f)
    blk = dec.blocks[2]
    negative = np.flatnonzero(blk.low >= 0).tolist()
    j, k = negative[:2]
    assert blk.faces[j].max() == blk.low[j]  # apparent: R is its boundary
    boundary_of_j = sorted(blk.rows[blk.faces[j]].tolist())
    assert dec.r_chain(2, j).support == boundary_of_j
    assert dec.check_reduced(2) and dec.check_rv(2)
    # with a tampered stored column the same calls change: they read R
    # through r_column and r
    blk._reduced[j] = blk.r_column(j) ^ 1 << int(blk.low[j])
    assert dec.r_chain(2, j).support != boundary_of_j
    assert not dec.check_rv(2)
    blk._reduced[j] = blk.r_column(k)
    assert not dec.check_reduced(2)


def test_low_is_the_read_only_pairing():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    for blk in reduce(f).blocks.values():
        assert blk.low.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            blk.low[0] = 0


def test_pivot_of_row_is_the_read_only_inverse_of_low():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=2))
    for blk in reduce(f).blocks.values():
        owner = blk.pivot_of_row
        assert owner.shape == (len(blk.rows),) and owner.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            owner[0] = 0
        negative = np.flatnonzero(blk.low >= 0)
        assert owner[blk.low[negative]].tolist() == negative.tolist()
        owned = np.flatnonzero(owner >= 0)
        assert blk.low[owner[owned]].tolist() == owned.tolist()


def test_reducing_a_column_again_gives_its_r_and_log():
    # the reduction adds only earlier owners: a column's own pivot row is
    # where it stops, also once its R column is stored
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=2))
    checked = 0
    for blk in reduce(f).blocks.values():
        for j in np.flatnonzero(blk.low >= 0).tolist():
            assert blk._reduce_column(j) == (blk.r_column(j), blk._logs.get(j, []))
            checked += bool(blk._logs.get(j))
    assert checked


@pytest.mark.parametrize("corrupt", ["move", "add", "drop", "twice"])
def test_corrupt_pairing_fails_the_pivot_check(corrupt):
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    blk = reduce(f).blocks[2]
    low = blk.low.copy()
    negative = np.flatnonzero(low >= 0)
    if corrupt == "move":  # a negative column owns the wrong row
        j = negative[0]
        low[j] = next(i for i in range(len(blk.rows)) if i not in set(low.tolist()))
    elif corrupt == "add":  # a positive column owns a row
        low[np.flatnonzero(low < 0)[0]] = len(blk.rows) - 1
    elif corrupt == "drop":  # a column that owns a row later ones reduce by
        j = next(j for j in negative if any(j in a for a in blk.adds))
        low[j] = -1
    else:  # a positive column whose youngest face is a negative one's row
        top = blk.faces.max(axis=1)
        q, j = next((q, j) for q in np.flatnonzero(low < 0) for j in negative
                    if top[q] == top[j] == low[j])
        low[q] = low[j]
    with pytest.raises(RuntimeError, match="pivot"):
        _DimReduction(blk.rows, blk.cols, blk.faces, low)


def assert_matches_negative_column_reduction(dec):
    for blk in dec.blocks.values():
        r, adds, pivot_of_row = negative_column_reduction(blk.faces, blk.low)
        assert list(blk.r) == r
        assert [blk._logs.get(j, []) for j in range(len(blk.cols))] == adds
        # the oracle's map as an array: row -> owning column, -1 for none
        expected = np.full(len(blk.rows), -1)
        expected[list(pivot_of_row)] = list(pivot_of_row.values())
        assert blk.pivot_of_row.tolist() == expected.tolist()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    max_dim=st.integers(min_value=1, max_value=3),
    radius=st.sampled_from([ENCLOSING, 0.4, 0.8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_blocks_match_the_all_columns_loop(n, max_dim, radius, seed):
    rng = np.random.default_rng(seed)
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4.0
    pts = grid[rng.choice(len(grid), size=n, replace=False)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=max_dim, max_radius=radius))
    assert_matches_negative_column_reduction(reduce(f))


def test_torus_blocks_match_the_all_columns_loop():
    # the benchmark's torus input at seed 0: 150 / 11,175 / 551,300 simplices,
    # where 10,931 of the 11,026 negative triangle columns are already reduced
    series = cc.double_sine()
    sup = cc.spectrum(series)
    tau = cc.optimal_delay(sup, 4, cc.default_tau_grid(sup))
    pc = cc.subsample(cc.sliding_window(series, cc.EmbeddingParams(d=4, tau=tau)), 150)
    f = build_rips(pc, RipsConfig(max_dim=1))
    assert [f.n_simplices(p) for p in range(3)] == [150, 11_175, 551_300]
    dec = reduce(f)
    blk = dec.blocks[2]
    negative = np.flatnonzero(blk.low >= 0)
    adds_nothing = sum(1 for j in negative.tolist() if not blk._logs.get(j))
    assert len(negative) == 11_026 and adds_nothing == 10_931
    # R is stored as an int for the other 95 columns only
    assert len(blk._reduced) == 95
    # the counts the benchmark's tracer reads off the blocks, which it reads
    # after pairs(): columns, column additions and nonzero top R columns
    assert sum(len(b.cols) for b in dec.blocks.values()) == 562_475

    def additions():
        return sum(len(a) for b in dec.blocks.values() for a in b.adds)

    assert additions() == 478
    dec.pairs(0)
    dec.pairs(1)
    assert additions() == 478
    assert sum(1 for col in blk.r if col) == 11_026
    assert_matches_negative_column_reduction(dec)


def test_bytes_per_triangle():
    # a deterministic memory guard: tracemalloc counts numpy's allocations
    # exactly, so no allocator behaviour enters it.  On a 100-point full
    # 2-skeleton, int64 vertex ids and an expansion by parent rows kept
    # 83.4 bytes a triangle and peaked at 102.3; int32 ids, an expansion by
    # counts and early-freed transients keep 63.0 and peak at 76.8
    pc = cloud(np.random.default_rng(0).random((100, 3)))
    cfg = RipsConfig(max_dim=1)
    build_rips(pc, cfg)  # first-call imports and caches are not the pipeline's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f = build_rips(pc, cfg)
        dec = reduce(f)
        held, peak = (b - start for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert f.n_simplices(2) == len(dec.blocks[2].low) == 161_700
    assert held / 161_700 < 70
    assert peak / 161_700 < 90
