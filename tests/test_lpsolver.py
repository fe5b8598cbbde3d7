import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import chronocycle as cc
import chronocycle.lp as lp
import chronocycle.lpsolver as lpsolver
from chronocycle.lpsolver import SolverStalled, revised_simplex


def dense(A):
    return sp.csc_matrix(np.asarray(A, float))


def test_two_variable_optimum():
    # max x + y with x + y <= 4, x <= 2, in standard form with slacks
    A = dense([[1, 1, 1, 0], [1, 0, 0, 1]])
    cost = np.array([-1.0, -1.0, 0.0, 0.0])
    b = np.array([4.0, 2.0])
    res = revised_simplex(cost, A, b)
    assert res.objective == pytest.approx(-4.0)
    assert np.allclose(A @ res.x, b)
    assert np.all(res.x >= -1e-12)
    assert res.x[0] + res.x[1] == pytest.approx(4.0)


def test_start_already_optimal():
    A = dense([[1, 0], [0, 1]])
    res = revised_simplex(np.array([1.0, 1.0]), A, np.array([2.0, 3.0]))
    assert res.iterations == 0
    assert res.objective == pytest.approx(5.0)


def beale_instance():
    # classic degenerate instance on which greedy pricing cycles without
    # an anti-cycling fallback; optimum is -1/20
    A = dense(
        [
            [0.25, -60.0, -1.0 / 25, 9.0, 1.0, 0.0, 0.0],
            [0.50, -90.0, -1.0 / 50, 3.0, 0.0, 1.0, 0.0],
            [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    cost = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    return cost, A, b


def test_degenerate_instance_terminates():
    cost, A, b = beale_instance()
    res = revised_simplex(cost, A, b)
    assert res.objective == pytest.approx(-0.05)


def test_pivot_cap_raises(monkeypatch):
    cost, A, b = beale_instance()
    monkeypatch.setattr(lpsolver, "PIVOT_CAP", 1)
    with pytest.raises(SolverStalled, match="iteration limit"):
        revised_simplex(cost, A, b)


def test_unbounded():
    A = dense([[1.0, -1.0]])
    with pytest.raises(SolverStalled, match="unbounded"):
        revised_simplex(np.array([-1.0, 0.0]), A, np.array([0.0]))


def test_infeasible():
    A = dense([[1, 0], [0, 1]])
    with pytest.raises(SolverStalled, match="infeasible"):
        revised_simplex(np.zeros(2), A, np.array([-1.0, 2.0]))


def test_malformed_lp_is_refused():
    A = dense([[1, 0], [0, 1]])
    for cost, b in (([1.0, 1.0, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0]),
                    ([np.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(ValueError):
            revised_simplex(np.array(cost), A, np.array(b))
    with pytest.raises(ValueError):
        revised_simplex(np.ones(2), dense([[1, 0], [0, np.inf]]), np.ones(2))


@pytest.mark.parametrize("n_free", [3, -1])
def test_n_free_outside_the_columns_is_refused(n_free):
    # lower[n - n_free:] wraps: 3 would free only the last column, -1 none
    with pytest.raises(ValueError, match="n_free"):
        revised_simplex(np.array([1.0, 0.0]), dense([[1.0, -1.0]]),
                        np.array([-1.0]), n_free=n_free)


def test_deterministic_pivot_sequence():
    cost, A, b = beale_instance()
    a = revised_simplex(cost, A, b)
    c = revised_simplex(cost, A, b)
    assert a.iterations == c.iterations
    assert np.array_equal(a.x, c.x)


def random_instance(seed, m=5, n=9):
    # G > 0 with slack identity keeps every objective bounded
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.2, 2.0, size=(m, n - m))
    A = np.hstack([G, np.eye(m)])
    b = rng.uniform(1.0, 5.0, size=m)
    cost = np.concatenate([rng.uniform(-2.0, 2.0, size=n - m), np.zeros(m)])
    return cost, A, b


@pytest.mark.parametrize("seed", range(10))
def test_matches_external_solver(seed):
    cost, A, b = random_instance(seed)
    res = revised_simplex(cost, dense(A), b)
    ref = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.success
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)
    assert np.allclose(A @ res.x, b, atol=1e-9)
    assert np.all(res.x >= -1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_reduced_costs_certify_optimum(seed):
    # dual feasible (no negative reduced cost) and complementary to x
    cost, A, b = random_instance(seed)
    res = revised_simplex(cost, dense(A), b)
    assert np.all(res.reduced >= -1e-9)
    assert np.allclose(res.reduced * res.x, 0.0, atol=1e-9)


def test_free_column_goes_negative():
    # x + w = -2 with x >= 0 has solutions only for w <= -2
    A = dense([[1.0, 1.0]])
    cost = np.array([1.0, 0.0])
    res = revised_simplex(cost, A, np.array([-2.0]), n_free=1)
    assert res.objective == pytest.approx(0.0)
    assert res.x == pytest.approx([0.0, -2.0])
    with pytest.raises(SolverStalled, match="infeasible"):
        revised_simplex(cost, A, np.array([-2.0]))


def l1_instance(seed, m=6, q=3):
    # min sum |s| over s = b + F w, as (s+, s-, w) with w free: bounded by 0
    rng = np.random.default_rng(seed)
    F = rng.uniform(-2.0, 2.0, size=(m, q))
    A = np.hstack([np.eye(m), -np.eye(m), -F])
    cost = np.concatenate([rng.uniform(0.5, 2.0, size=m)] * 2 + [np.zeros(q)])
    return cost, A, rng.uniform(-3.0, 3.0, size=m)


@pytest.mark.parametrize("seed", range(5))
def test_free_columns_have_zero_reduced_cost(seed):
    cost, A, b = l1_instance(seed)
    free = revised_simplex(cost, dense(A), b, n_free=3)
    # the same problem with w split into nonnegative halves
    split = revised_simplex(np.concatenate([cost, np.zeros(3)]),
                            dense(np.hstack([A, -A[:, -3:]])), b)
    assert free.objective == pytest.approx(split.objective, abs=1e-9)
    assert np.allclose(A @ free.x, b, atol=1e-9)
    assert np.all(free.x[:-3] >= -1e-9)
    assert np.all(np.abs(free.reduced[-3:]) <= 1e-9)
    assert np.all(free.reduced[:-3] >= -1e-9)
    assert np.allclose(free.reduced[:-3] * free.x[:-3], 0.0, atol=1e-9)


def test_free_column_unbounded():
    # x + w = 1: with w free, w -> -inf and x -> +inf
    A = dense([[1.0, 1.0]])
    cost = np.array([0.0, 1.0])
    assert revised_simplex(cost, A, np.array([1.0])).objective == 0.0
    with pytest.raises(SolverStalled, match="unbounded"):
        revised_simplex(cost, A, np.array([1.0]), n_free=1)


def assert_same_as_linprog(cost, A, b, n_free):
    # revised_simplex calls HiGHS through scipy's private bindings with the
    # options linprog(method="highs-ds") passes: the results must not drift.
    # A is any CSC matrix; linprog gets scipy's over the same arrays
    res = revised_simplex(cost, A, b, n_free=n_free)
    A = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    bounds = np.zeros((len(cost), 2))
    bounds[:, 1] = np.inf
    bounds[len(cost) - n_free :, 0] = -np.inf
    ref = linprog(cost, A_eq=A, b_eq=b, bounds=bounds, method="highs-ds")
    assert ref.status == 0
    assert np.array_equal(res.x, ref.x)
    assert res.objective == ref.fun
    assert res.iterations == ref.nit
    assert np.array_equal(res.reduced, cost - A.T @ ref.eqlin.marginals)


@pytest.mark.parametrize("seed", range(10))
def test_no_free_columns_is_the_nonnegative_lp(seed):
    # n_free=0 is the x >= 0 problem exactly: same vertex, same pivots
    cost, A, b = random_instance(seed)
    for cost, A, b in ((cost, dense(A), b), beale_instance()):
        assert_same_as_linprog(cost, A, b, n_free=0)


@pytest.mark.parametrize("seed", range(5))
def test_free_columns_are_linprogs_lp(seed):
    cost, A, b = l1_instance(seed)
    assert_same_as_linprog(cost, dense(A), b, n_free=3)


def test_sine_class_lps_are_linprogs(monkeypatch):
    # pass 1 and the pass-2 face LP of every kind, on the one H1 class of a
    # noisy sine (60 points, rho = 0.7)
    series = cc.noisy_sine(n=200, sigma=0.1, seed=0)
    sup = cc.spectrum(series)
    d = cc.embedding_dimension(sup)
    tau = cc.optimal_delay(sup, d, cc.default_tau_grid(sup))
    pc = cc.subsample(
        cc.sliding_window(series, cc.EmbeddingParams(d=d, tau=tau)), 60
    )
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=2.0))
    dec = cc.reduce(f)
    calls = []

    def logged(cost, A, b, n_free=0):
        calls.append((cost, A, b, n_free))
        return revised_simplex(cost, A, b, n_free=n_free)

    monkeypatch.setattr(lp, "revised_simplex", logged)
    reps = cc.optimize_all(dec.pairs(1), cc.RelaxationPolicy.fraction(0.7),
                           ("vertex", "simplex", "length"), f, dec, pc.labels)
    assert len(reps) == 3 and len(calls) == 6
    for cost, A, b, n_free in calls:
        assert n_free > 0
        assert_same_as_linprog(cost, A, b, n_free)
