import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

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


def test_pivot_cap_raises():
    cost, A, b = beale_instance()
    with pytest.raises(SolverStalled):
        revised_simplex(cost, A, b, pivot_cap=1)


def test_unbounded():
    A = dense([[1.0, -1.0]])
    with pytest.raises(SolverStalled, match="unbounded"):
        revised_simplex(np.array([-1.0, 0.0]), A, np.array([0.0]))


def test_infeasible():
    A = dense([[1, 0], [0, 1]])
    with pytest.raises(SolverStalled, match="infeasible"):
        revised_simplex(np.zeros(2), A, np.array([-1.0, 2.0]))


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
