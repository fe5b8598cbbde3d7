import math
import sys

import numpy as np
import pytest

import chronocycle as cc
from chronocycle import complexes as complexes_module
from chronocycle import lp as lp_module
from chronocycle import optimize as optimize_module
from chronocycle.complexes import Chain
from chronocycle.optimize import (
    OptimizedRepresentative,
    RelaxationPolicy,
    optimize_all,
    optimize_class,
    significance_threshold,
    significant_pairs,
)
from chronocycle.reduction import PersistencePair, reduce
from chronocycle.weights import KINDS

from _f2 import homologous, is_cycle
from conftest import HEXAGON_UNITS, support_units

PI = math.pi


def dummy_pair(birth, death, dim=1, birth_simplex=0):
    return PersistencePair(
        dim=dim,
        birth=birth,
        death=death,
        birth_simplex=birth_simplex,
        death_simplex=None if math.isinf(death) else birth_simplex + 1,
        initial_rep=Chain(dim, {birth_simplex: 1}),
    )


def test_policy_constructors_and_errors():
    assert RelaxationPolicy.full().mode == "full"
    assert RelaxationPolicy.fraction(0.5).rho == 0.5
    assert RelaxationPolicy.absolute(0.1).epsilon == 0.1
    with pytest.raises(ValueError):
        RelaxationPolicy(mode="halfway")
    for rho in (0.0, -0.1, 1.5, None):
        with pytest.raises(ValueError):
            RelaxationPolicy(mode="fraction", rho=rho)
    for epsilon in (0.0, -1.0, math.inf, math.nan, None):
        with pytest.raises(ValueError):
            RelaxationPolicy(mode="absolute", epsilon=epsilon)


def test_relaxed_birth_values(cylinder):
    pair = dummy_pair(1.0, 2.0)
    assert RelaxationPolicy.full().relaxed_birth(pair, cylinder) == 1.0
    assert RelaxationPolicy.fraction(1.0).relaxed_birth(pair, cylinder) == 1.0
    assert RelaxationPolicy.fraction(0.25).relaxed_birth(pair, cylinder) == pytest.approx(1.75)
    assert RelaxationPolicy.absolute(0.5).relaxed_birth(pair, cylinder) == pytest.approx(1.5)


def test_policies_reject_essential(cylinder):
    pair = dummy_pair(1.0, math.inf)
    assert RelaxationPolicy.full().relaxed_birth(pair, cylinder) == 1.0
    with pytest.raises(ValueError, match="essential"):
        RelaxationPolicy.fraction(0.5).relaxed_birth(pair, cylinder)
    with pytest.raises(ValueError, match="essential"):
        RelaxationPolicy.absolute(0.5).relaxed_birth(pair, cylinder)


def test_absolute_bound_range(cylinder):
    pair = dummy_pair(1.0, 2.0)
    # smallest filtration value is 1, so any bound above 1 overshoots
    with pytest.raises(ValueError, match="exceeds death value range"):
        RelaxationPolicy.absolute(1.5).relaxed_birth(pair, cylinder)


def test_describe():
    assert RelaxationPolicy.full().describe() == {"mode": "full"}
    assert RelaxationPolicy.fraction(0.7).describe() == {
        "mode": "fraction", "rho": 0.7,
    }
    assert RelaxationPolicy.absolute(0.25).describe() == {
        "mode": "absolute", "epsilon": 0.25,
    }


def test_optimizes_labeled_complex_per_kind(labeled):
    f, labels = labeled
    dec = reduce(f)
    ones = dec.pairs(1)
    assert len(ones) == 1
    pair = ones[0]
    assert pair.essential

    results = {}
    for kind in KINDS:
        rep = optimize_class(
            pair, RelaxationPolicy.full(), kind, f, dec, labels
        )
        results[kind] = rep
        assert rep.rounded_is_cycle
        assert rep.rounded is not None
        assert is_cycle(f, rep.rounded.support, 1)
        # time-optimal output stays in the homology class of the input
        assert homologous(f, rep.rounded.support, pair.initial_rep.support, 1)

    # vertex and adjacency weights both pick the time-tight hexagon
    for kind in ("vertex", "simplex"):
        sup = support_units(f, labels, results[kind].solution.support)
        assert sup == HEXAGON_UNITS
        assert results[kind].dispersion == pytest.approx(5 * PI / 3)
    # five unit steps plus the closing edge spanning five steps
    assert results["vertex"].solution.objective == pytest.approx(10 * PI / 3)
    # plain sparsity ties between the hexagon and the label-wild detours,
    # so only the objective is pinned
    assert results["length"].solution.objective == pytest.approx(6.0)


def test_optimize_class_no_free_columns(cylinder):
    dec = reduce(cylinder)
    finite = [pr for pr in dec.pairs(1) if not pr.essential][0]
    labels = np.arange(6, dtype=float)
    rep = optimize_class(
        finite, RelaxationPolicy.full(), "length", cylinder, dec, labels
    )
    assert rep.solution.iterations == 0
    assert rep.rounded.support == finite.initial_rep.support
    assert rep.relaxed_birth == finite.birth


def test_optimize_class_rejects_dead_start():
    # square-corner loop lives on (1, sqrt 2); an absolute bound wider than
    # the persistence window lands below the birth and is refused
    from chronocycle.embedding import LabeledPointCloud
    from chronocycle.rips import RipsConfig, build_rips

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pc = LabeledPointCloud(points=pts, labels=np.arange(4, dtype=float))
    f = build_rips(pc, RipsConfig(max_dim=1))
    dec = reduce(f)
    pair = dec.pairs(1)[0]
    policy = RelaxationPolicy.absolute(1.0)
    assert policy.relaxed_birth(pair, f) < pair.birth
    with pytest.raises(ValueError, match="not alive at relaxed birth"):
        optimize_class(pair, policy, "length", f, dec, pc.labels)


def test_significance_threshold():
    pairs = [dummy_pair(0.0, 4.0), dummy_pair(0.0, 1.0), dummy_pair(0.0, math.inf)]
    assert significance_threshold(pairs) == 2.0
    assert significance_threshold(pairs, bound=0.3) == 0.3
    assert significance_threshold([dummy_pair(0.0, math.inf)]) == 0.0
    assert significance_threshold([]) == 0.0
    # a NaN bound would compare false with every persistence
    with pytest.raises(ValueError, match="NaN"):
        significance_threshold(pairs, bound=math.nan)


def test_significant_pairs_filter_and_order():
    essential = dummy_pair(0.5, math.inf, birth_simplex=9)
    big = dummy_pair(0.0, 4.0, birth_simplex=1)
    small = dummy_pair(0.0, 1.0, birth_simplex=2)
    keep = significant_pairs([small, big, essential])
    # threshold 2 drops the small class; essential sorts first (infinite
    # persistence), then by decreasing persistence
    assert keep == [essential, big]
    keep_all = significant_pairs([small, big, essential], bound=0.0)
    assert keep_all == [essential, big, small]


def test_optimize_all_kind_order(labeled):
    f, labels = labeled
    dec = reduce(f)
    reps = optimize_all(
        dec.pairs(1), RelaxationPolicy.full(), ["length", "vertex"],
        f, dec, labels,
    )
    assert [r.loss_kind for r in reps] == ["length", "vertex"]
    assert all(isinstance(r, OptimizedRepresentative) for r in reps)
    assert optimize_all(
        [], RelaxationPolicy.full(), ["length"], f, dec, labels
    ) == []
    assert optimize_all(
        dec.pairs(1), RelaxationPolicy.full(), [], f, dec, labels
    ) == []


def test_optimize_all_fraction_policy_rejects_essential(labeled):
    f, labels = labeled
    dec = reduce(f)
    with pytest.raises(ValueError, match="essential"):
        optimize_all(
            dec.pairs(1), RelaxationPolicy.fraction(0.5), ["length"],
            f, dec, labels,
        )


def _sine_cloud():
    series = cc.noisy_sine(n=200, sigma=0.1, seed=0)
    sup = cc.spectrum(series)
    d = cc.embedding_dimension(sup)
    tau = cc.optimal_delay(sup, d, cc.default_tau_grid(sup))
    return cc.subsample(
        cc.sliding_window(series, cc.EmbeddingParams(d=d, tau=tau)), 40
    )


def test_optimize_all_builds_each_class_once(monkeypatch):
    pc = _sine_cloud()
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=1.6))
    dec = reduce(f)
    pairs = [pr for pr in dec.pairs(1) if not pr.essential]
    policy = RelaxationPolicy.fraction(0.7)
    calls = {"restrict_sets": 0, "build_lp": 0, "orient_chain": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(optimize_module, "restrict_sets")
    counted(optimize_module, "build_lp")
    counted(lp_module, "orient_chain")
    reps = optimize_all(pairs, policy, KINDS, f, dec, pc.labels,
                        significance=0.0)
    n_classes = len(pairs)
    assert n_classes >= 2
    assert len(reps) == len(KINDS) * n_classes
    assert calls == dict.fromkeys(calls, n_classes)

    for i, rep in enumerate(reps):
        kind = KINDS[i % len(KINDS)]
        alone = optimize_class(rep.pair, policy, kind, f, dec, pc.labels)
        assert rep.loss_kind == kind
        assert rep.solution.objective == alone.solution.objective
        assert rep.solution.support == alone.solution.support
        assert (rep.solution.support_coefficients
                == alone.solution.support_coefficients)
        assert rep.solution.iterations == alone.solution.iterations
        assert rep.rounded == alone.rounded
        assert rep.rounded_is_cycle == alone.rounded_is_cycle


def test_dispersion_is_the_label_spread_of_the_support():
    pc = _sine_cloud()
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=1.6))
    dec = reduce(f)
    pairs = [pr for pr in dec.pairs(1) if not pr.essential]
    reps = optimize_all(pairs, RelaxationPolicy.fraction(0.7), KINDS, f, dec,
                        pc.labels, significance=0.0)
    assert {rep.loss_kind for rep in reps} == set(KINDS)
    for rep in reps:
        ts = [float(pc.labels[v]) for g in rep.solution.support
              for v in f.simplices[g]]
        assert ts and rep.dispersion == max(ts) - min(ts)


@pytest.mark.parametrize("policy", [RelaxationPolicy.full(),
                                    RelaxationPolicy.fraction(0.7)],
                         ids=["full", "fraction"])
def test_each_class_builds_one_boundary_block(monkeypatch, policy):
    # the one block is the LP's free columns: the lift's real check and the
    # rounded F2 checks read the face index
    calls = []
    original = complexes_module._boundary_columns

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (complexes_module, optimize_module):
        monkeypatch.setattr(module, "_boundary_columns", counted)
    pc = _sine_cloud()
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=1.6))
    dec = reduce(f)
    pairs = [pr for pr in dec.pairs(1) if not pr.essential]
    reps = optimize_all(pairs, policy, KINDS, f, dec, pc.labels,
                        significance=0.0)
    assert len(reps) == len(KINDS) * len(pairs) >= 2 * len(KINDS)
    assert len(calls) == len(pairs)


@pytest.mark.parametrize("policy", [RelaxationPolicy.full(),
                                    RelaxationPolicy.fraction(0.7)],
                         ids=["full", "fraction"])
def test_optimization_builds_no_whole_boundary_operator(monkeypatch, policy):
    def refuse(*args, **kwargs):
        raise AssertionError("whole boundary operator built")

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chronocycle" and hasattr(module, "boundary_matrix"):
            monkeypatch.setattr(module, "boundary_matrix", refuse)
            patched.append(name)
    assert "chronocycle.complexes" in patched
    pc = _sine_cloud()
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=1.6))
    dec = reduce(f)
    pairs = [pr for pr in dec.pairs(1) if not pr.essential]
    reps = optimize_all(pairs, policy, KINDS, f, dec, pc.labels,
                        significance=0.0)
    assert len(reps) == len(KINDS) * len(pairs) >= 2 * len(KINDS)
    optimize_class(pairs[0], policy, "vertex", f, dec, pc.labels)


def test_optimize_all_h2_class():
    series = cc.double_sine()
    sup = cc.spectrum(series)
    tau = cc.optimal_delay(sup, 4, cc.default_tau_grid(sup))
    pc = cc.subsample(
        cc.sliding_window(series, cc.EmbeddingParams(d=4, tau=tau)), 200
    )
    f = cc.build_rips(pc, cc.RipsConfig(max_dim=2, max_radius=2.0))
    dec = reduce(f)
    assert len(significant_pairs(dec.pairs(2))) == 1
    reps = optimize_all(
        dec.pairs(2), RelaxationPolicy.full(), KINDS, f, dec, pc.labels
    )
    assert [rep.loss_kind for rep in reps] == list(KINDS)
    for rep in reps:
        assert rep.rounded_is_cycle
        support = rep.rounded.support
        assert is_cycle(f, support, 2)
        assert homologous(f, support, rep.pair.initial_rep.support, 2,
                          value_cap=rep.relaxed_birth)
