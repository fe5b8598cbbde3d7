import numpy as np
import pytest

from chronocycle.complexes import REAL, Chain, Filtration, boundary_matrix
from chronocycle.embedding import LabeledPointCloud
from chronocycle.lp import (
    build_lp,
    oracle_optimal,
    restrict_sets,
    solve,
    support_cost,
)
from chronocycle.reduction import reduce
from chronocycle.rips import RipsConfig, build_rips
from chronocycle.weights import length_weights, vertex_weights

from _f2 import gray_code_optimum, is_cycle


def chain_over(f, edges):
    index = {s: i for i, s in enumerate(f.simplices)}
    return Chain(1, {index[tuple(sorted(e))]: 1 for e in edges})


def pentagon_with_chord():
    """Five-cycle plus the chord (0, 2) and the triangle it cuts off."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]
    f = Filtration(
        [((i,), 0.0) for i in range(5)]
        + [(e, 1.0) for e in edges]
        + [((0, 1, 2), 1.0)]
    )
    return f


def test_pentagon_shortcut():
    f = pentagon_with_chord()
    c0 = chain_over(f, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    P = f.dim_indices(1)
    Qhat = f.dim_indices(2)
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    lp = build_lp(P, Qhat, c0, W, bd, f)
    sol = solve(lp)
    assert sol.objective == pytest.approx(4.0)
    sup = {f.simplices[g] for g in sol.support}
    assert sup == {(0, 2), (2, 3), (3, 4), (0, 4)}
    assert all(v in (1.0, -1.0) for v in sol.support_coefficients)
    assert sol.residual <= 1e-8

    best, oracle_sup = oracle_optimal(P, Qhat, c0, W, bd)
    assert best == pytest.approx(4.0)
    assert sorted(sol.support) == oracle_sup


def square_with_two_fins():
    """Square loop with a centre vertex and two of the four quadrant
    triangles filled: two distinct optimal supports of cost 4."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4)]
    f = Filtration(
        [((i,), 0.0) for i in range(5)]
        + [(e, 1.0) for e in edges]
        + [((0, 1, 4), 1.0), ((1, 2, 4), 1.0)]
    )
    return f


def test_tied_optima_all_reported():
    f = square_with_two_fins()
    c0 = chain_over(f, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P = f.dim_indices(1)
    Qhat = f.dim_indices(2)
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    best, supports = oracle_optimal(P, Qhat, c0, W, bd, return_all=True)
    assert best == pytest.approx(4.0)
    as_sets = [
        {f.simplices[g] for g in sup} for sup in supports
    ]
    assert {(0, 1), (1, 2), (2, 3), (0, 3)} in as_sets
    assert {(0, 4), (2, 4), (2, 3), (0, 3)} in as_sets
    assert len(supports) == 2
    # the LP lands on one of the tied vertices
    sol = solve(build_lp(P, Qhat, c0, W, bd, f))
    assert sol.objective == pytest.approx(4.0)
    assert sorted(sol.support) in supports


def position_cost(P, support):
    """The tie rule's secondary cost: sum of 1 + filtration position."""
    pos = {int(g): i for i, g in enumerate(P)}
    return sum(1 + pos[g] for g in support)


def assert_tie_rule(P, Qhat, c0, W, bd, f):
    """The LP's support is the tied optimum of least position cost, the
    same on every run.  Returns whether the optimum was tied."""
    best, supports = oracle_optimal(P, Qhat, c0, W, bd, return_all=True)
    runs = [solve(build_lp(P, Qhat, c0, W, bd, f)) for _ in range(2)]
    assert runs[0].support == runs[1].support
    assert np.array_equal(runs[0].c, runs[1].c)
    sup = sorted(runs[0].support)
    assert sup in supports
    assert position_cost(P, sup) == min(position_cost(P, s) for s in supports)
    return len(supports) > 1


def test_tie_rule_on_two_fins():
    f = square_with_two_fins()
    c0 = chain_over(f, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P = f.dim_indices(1)
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    assert assert_tie_rule(P, f.dim_indices(2), c0, W, bd, f)


def test_tie_rule_on_random_ties():
    tied = 0
    for seed in range(40):
        f, pc = rips_instance(seed, n=7)
        dec = reduce(f)
        bd = boundary_matrix(f, 1, REAL)
        for pr in dec.pairs(1):
            P, Qhat = restrict_sets(f, dec, 1, pr.birth)
            if len(Qhat) > 14:
                continue
            simplices = [f.simplices[g] for g in P]
            for W in (length_weights(simplices),
                      vertex_weights(simplices, pc.labels)):
                tied += assert_tie_rule(P, Qhat, pr.initial_rep, W, bd, f)
    assert tied >= 5


def test_restrict_sets_no_free_columns(cylinder):
    dec = reduce(cylinder)
    P, Qhat = restrict_sets(cylinder, dec, 1, 1.0)
    assert len(P) == 6  # the rim edges
    assert len(Qhat) == 0
    essential = [pr for pr in dec.pairs(1) if pr.essential][0]
    W = length_weights([cylinder.simplices[g] for g in P])
    bd = boundary_matrix(cylinder, 1, REAL)
    lp = build_lp(P, Qhat, essential.initial_rep, W, bd, cylinder)
    sol = solve(lp)
    # nothing to pivot: the initial representative is returned as-is
    assert sol.iterations == 0
    assert sol.support == essential.initial_rep.support
    assert sol.objective == pytest.approx(len(sol.support))


def test_restrict_sets_nothing_alive(cylinder):
    dec = reduce(cylinder)
    with pytest.raises(ValueError, match="no simplices alive"):
        restrict_sets(cylinder, dec, 1, 0.5)


def test_restrict_sets_full_complex(labeled):
    f, _ = labeled
    dec = reduce(f)
    P, Qhat = restrict_sets(f, dec, 1, 1.0)
    assert len(P) == 12
    assert len(Qhat) == 4  # every triangle kills a loop


def test_build_lp_rejects_non_cycle():
    f = pentagon_with_chord()
    P = f.dim_indices(1)
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    c0 = chain_over(f, [(0, 1)])
    with pytest.raises(ValueError, match="not a cycle"):
        build_lp(P, f.dim_indices(2), c0, W, bd, f)


def test_build_lp_rejects_unsupported_cycle():
    f = pentagon_with_chord()
    c0 = chain_over(f, [(0, 1), (1, 2), (0, 2)])
    # P misses the chord the cycle runs through
    P = [g for g in f.dim_indices(1) if f.simplices[g] != (0, 2)]
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    with pytest.raises(ValueError, match="not supported inside P"):
        build_lp(P, np.array([], dtype=int), c0, W, bd, f)


def test_build_lp_rejects_open_closure():
    f = pentagon_with_chord()
    c0 = chain_over(f, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    # P misses the chord, but the free triangle needs it as a face
    P = [g for g in f.dim_indices(1) if f.simplices[g] != (0, 2)]
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    with pytest.raises(ValueError, match="faces outside P"):
        build_lp(P, f.dim_indices(2), c0, W, bd, f)


def test_build_lp_needs_filtration_for_cycles():
    f = pentagon_with_chord()
    c0 = chain_over(f, [(0, 1), (1, 2), (0, 2)])
    P = f.dim_indices(1)
    W = length_weights([f.simplices[g] for g in P])
    bd = boundary_matrix(f, 1, REAL)
    with pytest.raises(ValueError, match="filtration required"):
        build_lp(P, np.array([], dtype=int), c0, W, bd)


def test_oracle_rejects_large_enumeration():
    with pytest.raises(ValueError, match="too many"):
        oracle_optimal(
            np.arange(3), np.arange(21), Chain(1, {}), None, None
        )


def test_support_cost_order_invariant():
    cost = np.array([0.1, 0.2, 0.3, 0.7, 1e-9])
    a = support_cost(cost, [0, 2, 4])
    b = support_cost(cost, [4, 0, 2])
    assert a == b
    assert support_cost(cost, []) == 0.0


def rips_instance(seed, n=6):
    rng = np.random.default_rng(seed)
    pts = 2.0 * rng.random((n, 2))
    pc = LabeledPointCloud(points=pts, labels=np.arange(n, dtype=float))
    f = build_rips(pc, RipsConfig(max_dim=1))
    return f, pc


def test_oracle_agrees_with_subset_enumeration():
    checked = 0
    for seed in range(10):
        f, pc = rips_instance(seed)
        dec = reduce(f)
        ones = dec.pairs(1)
        if not ones:
            continue
        pr = max(ones, key=lambda p: p.persistence)
        if pr.essential:
            continue
        b = 0.5 * (pr.birth + pr.death)
        P, Qhat = restrict_sets(f, dec, 1, b)
        if not 1 <= len(Qhat) <= 12:
            continue
        simplices = [f.simplices[g] for g in P]
        bd = boundary_matrix(f, 1, REAL)
        for W in (length_weights(simplices), vertex_weights(simplices, pc.labels)):
            best, sup = oracle_optimal(P, Qhat, pr.initial_rep, W, bd)
            ref_best, ref_sup = gray_code_optimum(
                P, Qhat, pr.initial_rep.support, f, W.column_costs
            )
            assert best == ref_best
            assert support_cost(W.column_costs, [list(P).index(g) for g in sup]) == best
            assert is_cycle(f, sup, 1)

            sol = solve(build_lp(P, Qhat, pr.initial_rep, W, bd, f))
            assert sol.objective == pytest.approx(best, rel=1e-9)
        checked += 1
    assert checked >= 3


def test_restrict_sets_matches_column_loop():
    # Qhat: the alive (p+1)-simplices whose reduced column R is nonzero, in
    # filtration order, as a loop over the block's columns finds them
    for seed in range(6):
        f, _ = rips_instance(seed, n=9)
        dec = reduce(f)
        blk = dec.blocks[2]
        for b in np.unique(f.values[f.dim_indices(1)]):
            P, Qhat = restrict_sets(f, dec, 1, b)
            alive = int(np.sum(f.values[f.dim_indices(2)] <= b + 1e-9 * (1 + b)))
            loop = [int(blk.cols[j]) for j in range(alive) if blk.r[j]]
            assert Qhat.dtype == np.array(loop, dtype=int).dtype
            assert Qhat.tolist() == loop
            assert P.tolist() == [g for g in f.dim_indices(1) if f.values[g] <= b]
