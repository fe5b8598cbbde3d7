import math
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chronocycle.weights import (
    KINDS,
    WeightMatrix,
    length_weights,
    simplex_weights,
    support_dispersion,
    vertex_weights,
    weights_for,
)

from _f2 import simplex_costs, vertex_costs
from conftest import HEXAGON_UNITS

PI = math.pi


def test_vertex_weights():
    P = [(0, 1), (1, 2), (0, 2)]
    labels = [0.0, 1.0, 5.0]
    W = vertex_weights(P, labels)
    assert W.kind == "vertex"
    assert np.allclose(W.column_costs, [1.0, 4.0, 5.0])
    dense = W.entries.toarray()
    assert np.allclose(dense, np.diag([1.0, 4.0, 5.0]))


def test_simplex_weights_square():
    P = [(0, 1), (1, 2), (2, 3), (0, 3)]
    labels = [0.0, 1.0, 2.0, 10.0]
    W = simplex_weights(P, labels)
    # means are 0.5, 1.5, 6.0, 5.0; the gaps between edges sharing a vertex
    # are 1.0 (edges 0-1, 2-3) and 4.5 (edges 1-2, 0-3), and each edge
    # costs its worst one
    assert np.allclose(W.column_costs, [4.5, 4.5, 4.5, 4.5])
    assert np.allclose(W.entries.toarray(), np.diag(W.column_costs))


def test_simplex_weights_isolated_column():
    P = [(0, 1), (2, 3)]
    W = simplex_weights(P, [0.0, 1.0, 2.0, 3.0])
    # disjoint edges share no facet, so neither has a gap to pay
    assert np.array_equal(W.column_costs, [0.0, 0.0])
    assert not W.entries.toarray().any()


def test_simplex_weights_triangles():
    P = [(0, 1, 2), (1, 2, 3)]
    labels = [0.0, 3.0, 6.0, 12.0]
    W = simplex_weights(P, labels)
    # means 3 and 7 share the facet (1, 2)
    assert np.allclose(W.column_costs, [4.0, 4.0])
    assert np.allclose(W.entries.toarray(), np.diag([4.0, 4.0]))


def test_length_weights():
    W = length_weights([(0, 1), (1, 2), (0, 2)])
    assert np.allclose(W.entries.toarray(), np.eye(3))
    assert np.allclose(W.column_costs, 1.0)


def test_weights_for_dispatch():
    P = [(0, 1)]
    labels = [0.0, 2.0]
    for kind in KINDS:
        assert weights_for(kind, P, labels).kind == kind
    with pytest.raises(ValueError):
        weights_for("euclidean", P, labels)
    with pytest.raises(ValueError):
        weights_for("taxicab", P, labels)


def test_negative_entries_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        WeightMatrix(kind="vertex", column_costs=np.array([1.0, -1.0]))


def test_nan_cost_rejected():
    with pytest.raises(ValueError, match="NaN"):
        WeightMatrix(kind="vertex", column_costs=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        vertex_weights([(0, 1)], [0.0, np.nan])


def test_entries_is_the_diagonal_of_the_costs():
    W = WeightMatrix(kind="simplex", column_costs=[0.0, 2.5])
    assert W.column_costs.dtype == float
    assert W.entries.format == "csr"
    assert W.entries.toarray().tolist() == [[0.0, 0.0], [0.0, 2.5]]


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
    shift=st.integers(min_value=1, max_value=100),
    scale=st.integers(min_value=2, max_value=8),
)
def test_weights_shift_and_scale(labels, shift, scale):
    P = [(0, 1), (1, 2), (2, 3), (0, 3)]
    base = np.array(labels, float)
    for build in (vertex_weights, simplex_weights):
        w0 = build(P, base).column_costs
        w_shift = build(P, base + shift).column_costs
        w_scale = build(P, base * scale).column_costs
        assert np.array_equal(w0, w_shift)
        assert np.array_equal(w0 * scale, w_scale)


@st.composite
def vertex_sets(draw):
    """Distinct vertex tuples of one dimension 0..3 over a few vertices,
    with labels drawn from a small range so means and spreads tie."""
    p = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=p + 1, max_value=7))
    pool = list(combinations(range(n), p + 1))
    P = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=4).map(lambda x: x / 3),
                 min_size=n, max_size=n)
    )
    return P, labels


@settings(max_examples=200, deadline=None)
@given(vertex_sets())
def test_costs_match_facet_dict_oracle(case):
    P, labels = case
    assert np.array_equal(vertex_weights(P, labels).column_costs,
                          vertex_costs(P, labels))
    assert np.array_equal(simplex_weights(P, labels).column_costs,
                          simplex_costs(P, labels))


def test_dispersion_on_hexagon(labeled):
    _, labels = labeled
    scale = PI / 3
    hex_edges = []
    for ua, ub in HEXAGON_UNITS:
        va = next(v for v in range(8) if round(labels[v] / scale, 6) == ua)
        vb = next(v for v in range(8) if round(labels[v] / scale, 6) == ub)
        hex_edges.append(tuple(sorted((va, vb))))
    # labels span pi/3 .. 2 pi over the six hexagon edges
    assert support_dispersion(hex_edges, labels) == pytest.approx(5 * PI / 3)
    # the vertex array of the same edges, as the optimization passes it
    assert (support_dispersion(np.array(hex_edges), np.asarray(labels))
            == support_dispersion(hex_edges, labels))


def test_dispersion_zero_chain_errors(labeled):
    _, labels = labeled
    with pytest.raises(ValueError):
        support_dispersion([], labels)
