import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from chronocycle import rips
from chronocycle.embedding import LabeledPointCloud
from chronocycle.reduction import reduce
from chronocycle.rips import (
    ENCLOSING,
    RipsConfig,
    build_rips,
    count_rips_simplices,
    distance_matrix,
)

from _f2 import assert_same_filtration, rips_simplices, shuffled_levels

SQRT2 = math.sqrt(2.0)


def cloud(points):
    pts = np.asarray(points, float)
    return LabeledPointCloud(points=pts, labels=np.arange(len(pts), dtype=float))


def test_config_validation():
    with pytest.raises(ValueError):
        RipsConfig(max_dim=0)
    with pytest.raises(ValueError):
        RipsConfig(max_dim=4)
    with pytest.raises(ValueError):
        RipsConfig(max_dim=1, max_radius=-1.0)
    cfg = RipsConfig(max_dim=2, max_radius=ENCLOSING)
    assert cfg.radius(np.array([[0.0, 3.0], [3.0, 0.0]])) == 3.0
    assert RipsConfig(max_radius=2.0).radius(np.zeros((2, 2))) == 2.0


def test_equilateral_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    assert len(f) == 7  # 3 + 3 + 1
    assert np.allclose(f.values[:3], 0.0)
    assert np.allclose(f.values[3:], 1.0)
    assert f.simplices[-1] == (0, 1, 2)


def test_unit_square_corners():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    edge_vals = {f.simplices[g]: f.values[g] for g in f.dim_indices(1)}
    assert len(edge_vals) == 6
    assert edge_vals[(0, 1)] == 1.0
    assert edge_vals[(0, 2)] == 1.0
    assert edge_vals[(1, 3)] == 1.0
    assert edge_vals[(2, 3)] == 1.0
    assert edge_vals[(0, 3)] == pytest.approx(SQRT2)
    assert edge_vals[(1, 2)] == pytest.approx(SQRT2)
    # every triangle contains a diagonal, so all four enter at sqrt(2)
    tri_vals = [f.values[g] for g in f.dim_indices(2)]
    assert len(tri_vals) == 4
    assert np.allclose(tri_vals, SQRT2)


def test_simplex_value_is_diameter():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((9, 3))
    f = build_rips(cloud(pts), RipsConfig(max_dim=2))
    dist = squareform(pdist(pts))
    for g, s in enumerate(f.simplices):
        if len(s) == 1:
            assert f.values[g] == 0.0
            continue
        diam = max(dist[a, b] for a, b in combinations(s, 2))
        assert f.values[g] == pytest.approx(diam, rel=1e-12)


def test_full_complex_counts():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((8, 2))
    f = build_rips(cloud(pts), RipsConfig(max_dim=2))
    # enclosing radius keeps everything: binomial counts through dim 3
    for p in range(4):
        assert f.n_simplices(p) == math.comb(8, p + 1)
    counts = count_rips_simplices(pts, RipsConfig(max_dim=2))
    assert counts == [f.n_simplices(p) for p in range(4)]


def test_count_matches_build_with_cap():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((12, 2))
    cfg = RipsConfig(max_dim=1, max_radius=1.0)
    counts = count_rips_simplices(pts, cfg)
    f = build_rips(cloud(pts), cfg)
    assert counts == [f.n_simplices(p) for p in range(len(counts))]


def test_radius_cap_prunes():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1, max_radius=1.0))
    # the sqrt(2) diagonals and all triangles are gone
    assert f.n_simplices(1) == 4
    assert f.n_simplices(2) == 0
    assert f.max_dim == 1


def test_coincident_points():
    pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    index = {s: i for i, s in enumerate(f.simplices)}
    assert f.value(index[(0, 1)]) == 0.0
    assert f.n_simplices(2) == 1


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        build_rips(cloud(np.zeros((0, 2))), RipsConfig())
    with pytest.raises(ValueError):
        build_rips(cloud([(0.0, 0.0)]), RipsConfig())
    with pytest.raises(ValueError):
        count_rips_simplices(np.zeros((0, 2)), RipsConfig())
    with pytest.raises(ValueError, match="need at least 2 points"):
        build_rips(cloud([(0.0, 0.0)]), RipsConfig())
    with pytest.raises(ValueError, match="need at least 2 points"):
        count_rips_simplices(np.zeros((1, 2)), RipsConfig())


def test_distance_matrix():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = distance_matrix(pts)
    assert d.shape == (2, 2)
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0
    assert d[0, 0] == 0.0


def test_distance_matrix_matches_pdist():
    # the same sums in the same order: equal bit for bit, not just close
    rng = np.random.default_rng(16)
    for _ in range(120):
        n, d = int(rng.integers(2, 120)), int(rng.integers(1, 21))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        pts[rng.integers(0, n, size=n // 4)] = pts[0]  # duplicate points
        assert np.array_equal(distance_matrix(pts), squareform(pdist(pts)))
    assert distance_matrix(np.zeros((0, 2))).shape == (0, 0)
    with pytest.raises(ValueError):
        distance_matrix(np.zeros(3))


def test_circle_loop_outlives_twice_its_birth():
    # 20 points on the unit circle: the loop is born at the polygon edge
    # length and persists well past twice that
    theta = 2 * math.pi * np.arange(20) / 20
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f = build_rips(cloud(pts), RipsConfig(max_dim=1))
    dec = reduce(f)
    ones = dec.pairs(1)
    assert ones, "expected a 1-dimensional class"
    top = max(ones, key=lambda pr: pr.persistence)
    assert top.birth == pytest.approx(2 * math.sin(math.pi / 20), rel=1e-9)
    assert top.death / top.birth > 2.0


@settings(max_examples=90, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    max_dim=st.integers(min_value=1, max_value=3),
    enclosing=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_expansion_matches_tuple_reference(n, max_dim, enclosing, seed):
    # points on a coarse grid, so coincident points and tied distances occur
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(n, 2)).astype(float)
    radius = ENCLOSING if enclosing else float(rng.choice([1.0, 1.5, 2.3]))
    cfg = RipsConfig(max_dim=max_dim, max_radius=radius)
    f = build_rips(cloud(pts), cfg)
    expected = sorted(
        rips_simplices(pts, max_dim, None if enclosing else radius),
        key=lambda t: (t[1], len(t[0]), t[0]),
    )
    assert list(f.simplices) == [s for s, _ in expected]
    assert f.values.tobytes() == np.array([v for _, v in expected]).tobytes()
    built = [f.n_simplices(p) for p in range(f.max_dim + 1)]
    assert count_rips_simplices(pts, cfg) == built
    # the same filtration from its levels with rows and dimensions shuffled
    items = [(f.simplices[g], f.value(g)) for g in range(len(f))]
    assert_same_filtration(f, rips.Filtration(levels=shuffled_levels(items, rng)))


def _record(monkeypatch, name):
    """Patch rips.<name> to log the row width of its first argument (1 for
    the vertex level, 2 for edges ...) before running it."""
    calls = []
    real = getattr(rips, name)

    def logged(simp, *args):
        calls.append(np.shape(simp)[1])
        return real(simp, *args)

    monkeypatch.setattr(rips, name, logged)
    return calls


def test_count_stops_past_the_cap(monkeypatch):
    # 936 points at the enclosing radius: 437,580 edges and about 1.4e8
    # triangles; the cap is passed while counting triangles, which are
    # never built
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((936, 4))
    grown = _record(monkeypatch, "_expand")
    monkeypatch.setattr(rips, "Filtration", None)  # a build would raise TypeError
    with pytest.raises(ValueError, match="simplex budget exceeded") as err:
        build_rips(cloud(pts), RipsConfig(max_dim=2), cap=5_000_000)
    total = int(str(err.value).split("at least ")[1].split()[0])
    assert 5_000_000 < total < 936 + math.comb(936, 2) + math.comb(936, 3)
    assert grown == [1]  # only the edges were built


def test_count_cap_bounds(monkeypatch):
    pts = np.random.default_rng(5).standard_normal((10, 2))
    cfg = RipsConfig(max_dim=1)
    full = count_rips_simplices(pts, cfg)
    assert full == [10, 45, 120]
    f = build_rips(cloud(pts), cfg, cap=sum(full))
    assert [f.n_simplices(p) for p in range(3)] == full
    assert_same_filtration(f, build_rips(cloud(pts), cfg))

    grown = _record(monkeypatch, "_expand")
    with pytest.raises(ValueError, match="at least 175 simplices > cap 174"):
        build_rips(cloud(pts), cfg, cap=sum(full) - 1)
    assert grown == [1]  # the triangles were counted, not built
    grown.clear()
    graphs = _record(monkeypatch, "_graph")
    with pytest.raises(ValueError, match="at least 10 simplices > cap 9"):
        build_rips(cloud(pts), cfg, cap=9)
    assert grown == [] and graphs == []  # refused before the distance matrix


@pytest.mark.parametrize("max_dim", [1, 2, 3])
def test_level_values_match_the_blockwise_max(max_dim):
    # values from running flat gathers equal, bit for bit, the parent's value
    # raised by the row maxima of the (m, k) block of distances to the new
    # vertex
    rng = np.random.default_rng(max_dim)
    pts = np.vstack([rng.standard_normal((11, 3)), rng.integers(0, 3, size=(4, 3))])
    levels = rips._rips_levels(pts, RipsConfig(max_dim=max_dim))
    assert len(levels) == max_dim + 2
    dist = rips.distance_matrix(pts)
    for (prev, prev_vals), (simp, vals) in zip(levels, levels[1:]):
        row = {s: i for i, s in enumerate(map(tuple, prev.tolist()))}
        parent = np.array([row[s] for s in map(tuple, simp[:, :-1].tolist())])
        blockwise = np.maximum(prev_vals[parent],
                               dist[simp[:, :-1], simp[:, -1:]].max(axis=1))
        assert vals.tobytes() == blockwise.tobytes()


def test_filtration_keeps_the_rips_levels(monkeypatch):
    # the builder's arrays are fresh and read-only: the filtration keeps
    # them rather than copying its largest arrays
    built = []

    def levels(*args):
        built.extend(rips_levels(*args))
        return built

    rips_levels = rips._rips_levels
    monkeypatch.setattr(rips, "_rips_levels", levels)
    pts = np.random.default_rng(3).random((9, 2))
    f = build_rips(cloud(pts), RipsConfig(max_dim=2))
    assert len(built) == len(f.levels) == 4
    for (simp, _), kept in zip(built, f.levels):
        assert not simp.flags.writeable
        assert simp.dtype == kept.dtype == np.int32
        assert np.shares_memory(simp, kept)
    # a writeable copy of the same levels is copied, and stays writeable
    given = [(simp.copy(), vals.copy()) for simp, vals in built]
    g = rips.Filtration(levels=given)
    assert_same_filtration(f, g)
    for (simp, _), kept in zip(given, g.levels):
        assert simp.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(simp, kept)


@pytest.mark.parametrize("tied", [False, True])
def test_expansion_across_chunks(monkeypatch, tied):
    # one mask row per chunk: the edge and triangle levels span many chunks,
    # and the chunk of any simplex without cofaces (the last vertex's, at
    # least) is all zero
    rng = np.random.default_rng(11)
    n = 13
    pts = rng.integers(0, 3, size=(n, 2)).astype(float) if tied else rng.random((n, 2))
    for max_dim, radius in ((1, None), (2, 1.5 if tied else 0.6)):
        cfg = RipsConfig(max_dim=max_dim, max_radius=ENCLOSING if radius is None else radius)
        whole = rips._rips_levels(pts, cfg)
        counts = count_rips_simplices(pts, cfg)
        monkeypatch.setattr(rips, "_CHUNK", 1)
        chunked = rips._rips_levels(pts, cfg)
        assert count_rips_simplices(pts, cfg) == counts
        _, up = rips._graph(pts, cfg)
        for simp, _ in chunked[:2]:
            masks = list(rips._cofaces(simp, up))
            assert len(masks) == len(simp) and not all(m.any() for m in masks)
        monkeypatch.undo()
        assert len(chunked) == len(whole) == len(counts) > 2
        dist = squareform(pdist(pts))
        cutoff = dist.max() if radius is None else radius
        for (simp, vals), (simp_w, vals_w), m in zip(chunked, whole, counts):
            assert simp.dtype == simp_w.dtype == np.int32
            assert simp.tobytes() == simp_w.tobytes() and vals.tobytes() == vals_w.tobytes()
            # every vertex set of this size whose pairwise distances are all
            # within the radius, in lexicographic order, at its diameter
            level = []
            for c in combinations(range(n), simp.shape[1]):
                d = [dist[a, b] for a, b in combinations(c, 2)]
                if all(x <= cutoff for x in d):
                    level.append((c, max(d, default=0.0)))
            assert len(simp) == m == len(level)
            assert simp.tolist() == [list(c) for c, _ in level]
            assert vals.tobytes() == np.array([v for _, v in level]).tobytes()
