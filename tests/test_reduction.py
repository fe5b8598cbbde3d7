import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronocycle as cc

from chronocycle.complexes import Filtration, boundary
from chronocycle.embedding import LabeledPointCloud
from chronocycle.reduction import (
    _FIRST_WINDOW,
    _DimReduction,
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
    v = {}

    def v_column(j):
        if j not in v:
            col = 1 << j
            for a in blocks[dim][2][j]:
                col ^= v_column(a)
            v[j] = col
        return v[j]

    for i in range(len(births)):
        if i in paired or (dim > 0 and blocks[dim][0][i]):
            continue
        g = int(births[i])
        sup = [g] if dim == 0 else births[bit_positions(v_column(i))].tolist()
        out.append((f.value(g), math.inf, g, None, sup))
    return sorted(out, key=lambda t: (t[0], t[1], t[2]))


def assert_matches_full_reduction(f):
    dec = reduce(f)
    ref = full_reduction(f)
    assert sorted(dec.blocks) == sorted(ref)
    for p, (r, low, adds) in ref.items():
        blk = dec.blocks[p]
        assert blk.r == r
        assert blk.low.tolist() == low
        assert len(blk.adds) == len(adds)
        # check_rv asks for every V column, positive ones on demand
        assert dec.check_reduced(p)
        assert dec.check_rv(p)
        assert blk.adds == adds
    # a fresh reduction: pairs() must not rely on check_rv's V logs
    for dim in range(f.max_dim + 1):
        got = [
            (pr.birth, pr.death, pr.birth_simplex, pr.death_simplex,
             pr.initial_rep.support)
            for pr in reduce(f).pairs(dim)
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


def test_positive_columns_share_one_empty_log():
    f = build_rips(circle_cloud(12, 0.1, 4), RipsConfig(max_dim=1))
    blk = reduce(f).blocks[2]
    positive = [j for j, lw in enumerate(blk.low) if lw < 0]
    assert positive
    assert len({id(blk.adds[j]) for j in positive}) == 1
    assert all(blk.adds[j] == [] and blk.r[j] == 0 for j in positive)


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
            assert blk._reduce_column(j) == (blk.r[j], blk.adds[j])
            checked += bool(blk.adds[j])
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
        assert blk.r == r
        assert blk.adds == adds
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
    adds_nothing = sum(1 for j in negative.tolist() if not blk.adds[j])
    assert len(negative) == 11_026 and adds_nothing == 10_931
    assert_matches_negative_column_reduction(dec)
