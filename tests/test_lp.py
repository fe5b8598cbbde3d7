import numpy as np
import pytest

import chronocycle as cc
from chronocycle.complexes import (
    REAL,
    Chain,
    Filtration,
    _boundary_columns,
    boundary_matrix,
)
from chronocycle.embedding import LabeledPointCloud
from chronocycle.lp import (
    CSC,
    _standard_form,
    build_lp,
    oracle_optimal,
    restrict_sets,
    solve,
    support_cost,
)
from chronocycle.optimize import RelaxationPolicy
from chronocycle.reduction import reduce
from chronocycle.rips import RipsConfig, build_rips
from chronocycle.weights import length_weights, vertex_weights, weights_for

from _f2 import gray_code_optimum, is_cycle, split_w_solve


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
    # at the top dimension no block has the simplices as rows: no free column
    P, Qhat = restrict_sets(cylinder, dec, 2, 2.0)
    assert P.tolist() == cylinder.dim_indices(2).tolist()
    assert Qhat.tolist() == [] and Qhat.dtype == np.array([], dtype=int).dtype


def test_lp_cannot_write_through_to_the_filtration(cylinder):
    dec = reduce(cylinder)
    P, Qhat = restrict_sets(cylinder, dec, 1, 1.0)
    essential = [pr for pr in dec.pairs(1) if pr.essential][0]
    W = length_weights([cylinder.simplices[g] for g in P])
    lp = build_lp(P, Qhat, essential.initial_rep, W,
                  boundary_matrix(cylinder, 1, REAL), cylinder)
    # P is a view of the filtration's index array, which is read-only
    assert np.shares_memory(lp.P, cylinder.dim_indices(1))
    with pytest.raises(ValueError, match="read-only"):
        lp.P[0] = lp.P[1]


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


def test_build_lp_and_oracle_name_ids_they_cannot_place():
    f = pentagon_with_chord()  # ids 0-4 vertices, 5-10 edges, 11 the triangle
    c0 = chain_over(f, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    P, Qhat = f.dim_indices(1), f.dim_indices(2)
    W = length_weights(P)
    whole = boundary_matrix(f, 1, REAL)
    no_column = _boundary_columns(f, 1, np.array([], dtype=int), REAL)
    for bad_P, bad_Q, bd, named in [
        (np.append(P, 0), Qhat, whole, r"id 0\b"),  # a vertex in P
        (P, np.array([5, 11]), whole, r"id 5\b"),  # an edge in Qhat
        (P, Qhat, no_column, r"id 11 is not a column of bd"),
    ]:
        with pytest.raises(ValueError, match=named):
            build_lp(bad_P, bad_Q, c0, W, bd, f)
        with pytest.raises(ValueError, match=named):
            oracle_optimal(bad_P, bad_Q, c0, W, bd)


def test_build_lp_refuses_a_block_without_a_free_column():
    # the first class of noisy sine seed 0 as sine-optimize runs it, read
    # from a block that lacks its first free column
    series = cc.noisy_sine(n=200, sigma=0.1, seed=0)
    sup = cc.spectrum(series)
    d = cc.embedding_dimension(sup)
    tau = cc.optimal_delay(sup, d, cc.default_tau_grid(sup))
    pc = cc.subsample(
        cc.sliding_window(series, cc.EmbeddingParams(d=d, tau=tau)), 60
    )
    f = build_rips(pc, RipsConfig(max_dim=1, max_radius=2.0))
    dec = reduce(f)
    pr = cc.significant_pairs(dec.pairs(1))[0]
    b = RelaxationPolicy.fraction(0.7).relaxed_birth(pr, f)
    P, Qhat = restrict_sets(f, dec, 1, b)
    W = length_weights(P)
    cols = np.searchsorted(f.dim_indices(2), Qhat)
    block = _boundary_columns(f, 1, cols, REAL)
    lp = build_lp(P, Qhat, pr.initial_rep, W, block, f)
    assert lp.A.shape == (len(P), len(Qhat)) and len(Qhat) > 1
    short = _boundary_columns(f, 1, cols[1:], REAL)
    with pytest.raises(ValueError, match=rf"id {Qhat[0]} is not a column of bd"):
        build_lp(P, Qhat, pr.initial_rep, W, short, f)


def gather_columns(A, keep):
    """The columns of the CSC arrays A where the mask ``keep`` is set, in
    order, gathered entry by entry."""
    counts = np.diff(A.indptr)
    entries = np.repeat(keep, counts)
    kept = counts[keep]
    return CSC(np.concatenate([[0], np.cumsum(kept)]), A.indices[entries],
               A.data[entries], (A.shape[0], len(kept)))


def dense(A):
    out = np.zeros(A.shape)
    for j in range(A.shape[1]):
        at = slice(A.indptr[j], A.indptr[j + 1])
        out[A.indices[at], j] += A.data[at]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_standard_form_cut_is_the_gather_of_the_full_form(seed):
    # pass 2's form, built from the unit columns of the face's rows, is the
    # full form [I, -I, -A] with the columns off the face gathered away
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 10))
    for q in (0, 1, 6):
        faces = np.array([np.sort(rng.choice(m, 3, replace=False)) for _ in range(q)],
                         dtype=np.int64).reshape(q, 3)
        A = CSC(np.arange(0, 3 * q + 1, 3), faces.ravel(),
                rng.choice([-1.0, 1.0], 3 * q), (m, q))
        rows = np.arange(m)
        full = _standard_form(A, rows, rows)
        assert np.array_equal(dense(full), np.hstack([np.eye(m), -np.eye(m), -dense(A)]))
        none, every = np.zeros(m, bool), np.ones(m, bool)
        halves = [(rng.random(m) < 0.5, rng.random(m) < 0.5) for _ in range(4)]
        halves += [(none, every), (every, none), (none, none), (every, every)]
        for plus, minus in halves:
            face = np.concatenate([plus, minus, np.ones(q, bool)])
            got = _standard_form(A, np.flatnonzero(plus), np.flatnonzero(minus))
            want = gather_columns(full, face)
            assert got.shape == want.shape == (m, int(face.sum()))
            for a in ("indptr", "indices", "data"):
                assert getattr(got, a).dtype == getattr(want, a).dtype
                assert np.array_equal(getattr(got, a), getattr(want, a))


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
    # P: the p-simplices alive at b; Qhat: the alive (p+1)-simplices whose
    # reduced column R is nonzero, in filtration order, as a loop over the
    # block's columns finds them.  b runs over the values of dimension p,
    # between two of them, and below and above them all
    for seed in range(6):
        f, _ = rips_instance(seed, n=9)
        dec = reduce(f)
        for p in (0, 1):
            blk = dec.blocks[p + 1]
            values = np.unique(f.values[f.dim_indices(p)])
            between = (values[:-1] + values[1:]) / 2
            for b in [values[0] - 1, *values, *between, values[-1] + 1]:
                alive_p = [g for g in f.dim_indices(p) if f.values[g] <= b]
                if not alive_p:
                    with pytest.raises(ValueError, match="no simplices alive"):
                        restrict_sets(f, dec, p, b)
                    continue
                P, Qhat = restrict_sets(f, dec, p, b)
                alive = int(np.sum(f.values[f.dim_indices(p + 1)] <= b + 1e-9 * (1 + b)))
                loop = [int(blk.cols[j]) for j in range(alive) if blk.r_column(j)]
                assert Qhat.dtype == np.array(loop, dtype=int).dtype
                assert Qhat.tolist() == loop
                assert P.tolist() == alive_p


def class_lps(f, dec, labels, pairs, policy,
              kinds=("vertex", "simplex", "length")):
    """The LP of each H1 class at its relaxed birth, once per kind."""
    bd = boundary_matrix(f, 1, REAL)
    for pr in pairs:
        P, Qhat = restrict_sets(f, dec, 1, policy.relaxed_birth(pr, f))
        verts = np.array([f.simplices[g] for g in P])
        for kind in kinds:
            W = weights_for(kind, verts, labels)
            yield build_lp(P, Qhat, pr.initial_rep, W, bd, f)


def assert_matches_split_w(lp):
    """The free-w LP and the split-w oracle reach the same objective and the
    same tie cost sum_j (1 + j) |c_j|: both satisfy the tie rule.  Returns
    the two."""
    sol = solve(lp)
    ref = split_w_solve(lp.A, lp.cost, lp.c0)
    rank = np.arange(1, len(ref) + 1)
    got = (sol.objective, float(rank @ np.abs(sol.c)))
    want = (float(lp.cost @ np.abs(ref)), float(rank @ np.abs(ref)))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    return got


@pytest.mark.parametrize("policy", [RelaxationPolicy.full(),
                                    RelaxationPolicy.fraction(0.7)],
                         ids=["full", "fraction"])
def test_free_w_matches_split_w_oracle(policy):
    checked = 0
    for seed in range(30):
        f, pc = rips_instance(seed, n=7)
        dec = reduce(f)
        pairs = [pr for pr in dec.pairs(1) if not pr.essential]
        for lp in class_lps(f, dec, pc.labels, pairs, policy):
            assert_matches_split_w(lp)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("policy", [RelaxationPolicy.full(),
                                    RelaxationPolicy.fraction(0.7)],
                         ids=["full", "fraction"])
def test_free_column_block_builds_the_same_lp(policy):
    # the boundary block of the free columns alone, as the optimization
    # builds it, gives the LP cut from the whole operator: the same
    # constraint matrix, initial cycle and rows
    checked = free = 0
    for seed in range(30):
        f, pc = rips_instance(seed, n=12)
        dec = reduce(f)
        whole = boundary_matrix(f, 1, REAL)
        for pr in dec.pairs(1):
            if pr.essential:
                continue
            P, Qhat = restrict_sets(f, dec, 1, policy.relaxed_birth(pr, f))
            block = _boundary_columns(
                f, 1, np.searchsorted(f.dim_indices(2), Qhat), REAL
            )
            assert block.cols.tolist() == Qhat.tolist()
            W = vertex_weights([f.simplices[g] for g in P], pc.labels)
            got = build_lp(P, Qhat, pr.initial_rep, W, block, f)
            want = build_lp(P, Qhat, pr.initial_rep, W, whole, f)
            assert got.A.shape == want.A.shape
            for a in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.A, a), getattr(want.A, a))
            assert np.array_equal(got.c0, want.c0)
            assert np.array_equal(got.P, want.P)
            checked += 1
            free += len(Qhat)
    assert checked >= 20 and free > 0


def test_free_w_matches_split_w_on_sine_tie():
    # noisy sine seed 3 as the sine-optimize benchmark runs it: its length
    # class under fraction(0.7) has two integral optima of objective 10 and
    # tie cost 2755, so either formulation may return either one
    series = cc.noisy_sine(n=200, sigma=0.1, seed=3)
    sup = cc.spectrum(series)
    d = cc.embedding_dimension(sup)
    tau = cc.optimal_delay(sup, d, cc.default_tau_grid(sup))
    pc = cc.subsample(
        cc.sliding_window(series, cc.EmbeddingParams(d=d, tau=tau)), 60
    )
    f = build_rips(pc, RipsConfig(max_dim=1, max_radius=2.0))
    dec = reduce(f)
    pairs = cc.significant_pairs(dec.pairs(1))[:1]
    lp, = class_lps(f, dec, pc.labels, pairs, RelaxationPolicy.fraction(0.7),
                    kinds=("length",))
    assert assert_matches_split_w(lp) == pytest.approx((10.0, 2755.0), abs=1e-9)
