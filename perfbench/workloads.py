"""The three benchmark workloads: input generation, the timed pipeline and
the checks on its products.

Each workload has three parts:

* ``make_input(seed, size)`` builds the input from the seed (untimed);
* ``run(inp, size, workdir)`` drives the package from that input to the
  workload's final product (timed);
* ``verify(inp, out, size, ref)`` checks the products and returns the problem
  sizes; it raises ``Failed`` on any wrong product.  ``ref`` holds the values
  recorded for input seed 0 and is ``None`` for every other input.

Library calls go through ``chronocycle`` module attributes at call time, so
the tracer's wrappers see them.  The checks recompute the LP costs with plain
numpy from the point cloud and its time labels rather than from the
package's weight matrices.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import chronocycle as cc
import chronocycle.cli
import chronocycle.lp

KINDS = ("vertex", "simplex", "length")
REL_TOL = 1e-9


class Failed(Exception):
    """A product failed verification."""


def check(cond, msg):
    if not cond:
        raise Failed(msg)


# ---------------------------------------------------------------------------
# independent checks on 1-cycles


def edge_costs(kind, points, labels, b):
    """Cost of every edge alive at b under the given kind, from the points.

    vertex: label spread of the edge; length: 1; simplex: largest
    |mean-label difference| to an alive edge sharing a vertex.
    """
    x = np.asarray(points, float)
    lab = np.asarray(labels, float)
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    iu, ju = np.triu_indices(len(x), 1)
    alive = dist[iu, ju] <= b + 1e-9 * (1 + abs(b))
    iu, ju = iu[alive], ju[alive]
    if kind == "vertex":
        cost = np.abs(lab[ju] - lab[iu])
    elif kind == "length":
        cost = np.ones(len(iu))
    elif kind == "simplex":
        mean = (lab[iu] + lab[ju]) / 2
        lo = np.full(len(x), np.inf)
        hi = np.full(len(x), -np.inf)
        for v in (iu, ju):
            np.minimum.at(lo, v, mean)
            np.maximum.at(hi, v, mean)
        cost = np.maximum(mean - np.minimum(lo[iu], lo[ju]),
                          np.maximum(hi[iu], hi[ju]) - mean)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {(int(a), int(c)): float(w) for a, c, w in zip(iu, ju, cost)}


def check_cycle(edges, what):
    """Every vertex of an F2 1-cycle meets an even number of its edges."""
    check(len(edges) > 0, f"{what}: empty support")
    deg = {}
    for e in edges:
        for v in e:
            deg[v] = deg.get(v, 0) ^ 1
    check(not any(deg.values()), f"{what}: support is not a cycle")


def check_class(what, objective, residual, support, coefs, initial, costs,
                rounded):
    """Checks that hold for every optimized class on any input.

    The LP optimum is a real cycle homologous to the initial one, so its
    signed boundary vanishes and its cost is at most the initial cycle's.
    An integral optimum must be flagged as rounded and reduce to an F2
    cycle; a fractional one (an LP vertex that is not integral, which the
    package flags instead of failing) is checked as a real cycle only.
    """
    check(residual <= cc.lp.RESIDUAL_TOL * 2,
          f"{what}: residual {residual:.3e} out of tolerance")
    check(len(support) > 0, f"{what}: empty support")
    check(all(e in costs for e in support), f"{what}: support not alive")
    bd = {}
    for (a, b), c in zip(support, coefs):
        bd[b] = bd.get(b, 0.0) + c
        bd[a] = bd.get(a, 0.0) - c
    check(max(map(abs, bd.values())) <= 1e-5,
          f"{what}: support is not a real cycle")
    recomputed = sum(costs[e] * abs(c) for e, c in zip(support, coefs))
    check(abs(recomputed - objective) <= 1e-6 * (1 + abs(objective)),
          f"{what}: objective {objective!r} != support cost {recomputed!r}")
    init = sum(costs[e] for e in initial)
    check(objective <= init * (1 + REL_TOL) + REL_TOL,
          f"{what}: objective {objective!r} above initial cost {init!r}")
    integral = all(abs(c - round(c)) <= cc.lp.ROUND_TOL for c in coefs)
    check(rounded == integral,
          f"{what}: rounded flag {rounded} but integral support {integral}")
    if rounded:
        check_cycle([e for e, c in zip(support, coefs) if round(c) % 2], what)


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def diagram_rows(pairs):
    """(birth, death) per pair, None for an infinite death."""
    return [[pr.birth, None if pr.essential else pr.death] for pr in pairs]


def full_2skeleton(n):
    return [n, n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6]


# ---------------------------------------------------------------------------
# sine-optimize


class SineOptimize:
    name = "sine-optimize"
    sizes = {"full": {"n": 200, "points": 60}, "tiny": {"n": 120, "points": 30}}

    def make_input(self, seed, size):
        return cc.noisy_sine(n=self.sizes[size]["n"], sigma=0.1, seed=seed)

    def run(self, series, size, workdir):
        sup = cc.spectrum(series)
        d = cc.embedding_dimension(sup)
        tau = cc.optimal_delay(sup, d, cc.default_tau_grid(sup))
        pc = cc.subsample(
            cc.sliding_window(series, cc.EmbeddingParams(d=d, tau=tau)),
            self.sizes[size]["points"],
        )
        f = cc.build_rips(pc, cc.RipsConfig(max_dim=1, max_radius=2.0))
        dec = cc.reduce(f)
        reps = cc.optimize_all(dec.pairs(1), cc.RelaxationPolicy.fraction(0.7),
                               KINDS, f, dec, pc.labels)
        return {"pc": pc, "f": f, "dec": dec, "reps": reps}

    def verify(self, series, out, size, ref):
        pc, f, dec, reps = out["pc"], out["f"], out["dec"], out["reps"]
        check(len(reps) >= len(KINDS) and len(reps) % len(KINDS) == 0,
              f"expected classes x {len(KINDS)} kinds, got {len(reps)}")
        costs = {}
        for i, rep in enumerate(reps):
            key = (rep.loss_kind, rep.relaxed_birth)
            if key not in costs:
                costs[key] = edge_costs(rep.loss_kind, pc.points, pc.labels,
                                        rep.relaxed_birth)
            sol = rep.solution
            check_class(
                f"class {i} ({rep.loss_kind})", sol.objective,
                sol.residual, [f.simplices[g] for g in sol.support],
                sol.support_coefficients,
                [f.simplices[g] for g in rep.pair.initial_rep.support],
                costs[key], rep.rounded_is_cycle,
            )
        sizes = {
            "points": len(pc),
            "simplices": [f.n_simplices(p) for p in range(f.max_dim + 1)],
            "classes": len(reps),
            "fractional": sum(not r.rounded_is_cycle for r in reps),
            "lp_rows": max(len(r.solution.c) for r in reps),
            "lp_cols": max(len(r.solution.w) for r in reps),
            "pivots": sum(r.solution.iterations for r in reps),
        }
        if ref is not None:
            for key in ("points", "simplices", "lp_rows", "lp_cols"):
                check(sizes[key] == ref[key],
                      f"{key} {sizes[key]} != reference {ref[key]}")
            check(diagram_rows(dec.pairs(0)) == ref["h0"], "H0 != reference")
            check(diagram_rows(dec.pairs(1)) == ref["h1"], "H1 != reference")
            got = [r.solution.objective for r in reps]
            check(len(got) == len(ref["objectives"])
                  and all(map(close, got, ref["objectives"])),
                  f"objectives {got} != reference {ref['objectives']}")
        return sizes

    def reference(self, series, out):
        sizes = self.verify(series, out, "full", None)
        dec = out["dec"]
        return {**{k: sizes[k] for k in ("points", "simplices", "lp_rows",
                                          "lp_cols")},
                "h0": diagram_rows(dec.pairs(0)),
                "h1": diagram_rows(dec.pairs(1)),
                "objectives": [r.solution.objective for r in out["reps"]]}


# ---------------------------------------------------------------------------
# torus-persistence


class TorusPersistence:
    name = "torus-persistence"
    sizes = {"full": {"points": 150}, "tiny": {"points": 25}}
    noise = 0.05

    def make_input(self, seed, size):
        series = cc.double_sine()
        if seed:
            rng = np.random.default_rng(seed)
            noisy = series.values + self.noise * rng.standard_normal(series.n)
            series = cc.TimeSeries(t0=series.t0, dt=series.dt, values=noisy)
        return series

    def run(self, series, size, workdir):
        sup = cc.spectrum(series)
        tau = cc.optimal_delay(sup, 4, cc.default_tau_grid(sup))
        pc = cc.subsample(
            cc.sliding_window(series, cc.EmbeddingParams(d=4, tau=tau)),
            self.sizes[size]["points"],
        )
        cfg = cc.RipsConfig(max_dim=1)
        counts = cc.count_rips_simplices(pc.points, cfg)
        f = cc.build_rips(pc, cfg)
        dec = cc.reduce(f)
        return {"pc": pc, "counts": counts, "f": f, "dec": dec,
                "h0": dec.pairs(0), "h1": dec.pairs(1)}

    def verify(self, series, out, size, ref):
        f, dec, h0, h1 = out["f"], out["dec"], out["h0"], out["h1"]
        n = len(out["pc"])
        simplices = [f.n_simplices(p) for p in range(f.max_dim + 1)]
        check(out["counts"] == simplices,
              f"count {out['counts']} != built {simplices}")
        check(simplices == full_2skeleton(n),
              f"{simplices} is not the full 2-skeleton on {n} points")
        check(len(h0) == n and sum(pr.essential for pr in h0) == 1,
              "H0 needs n classes, one essential")
        check(not any(pr.essential for pr in h1), "essential H1 class")
        check(all(pr.birth < pr.death for pr in h0 + h1), "birth >= death")
        # every positive edge dies: the triangle block's rank is fixed
        negative = sum(1 for col in dec.blocks[2].r if col)
        check(negative == simplices[1] - (n - 1),
              f"{negative} negative triangles, expected {simplices[1] - n + 1}")
        for i, pr in enumerate(h1):
            edges = [f.simplices[g] for g in pr.initial_rep.support]
            check_cycle(edges, f"H1 class {i}")
            check(max(f.values[g] for g in pr.initial_rep.support)
                  <= pr.birth, f"H1 class {i}: representative born late")
        sizes = {"points": n, "simplices": simplices, "h1_pairs": len(h1),
                 "negative_triangles": negative}
        if ref is not None:
            check(simplices == ref["simplices"], "sizes != reference")
            check(diagram_rows(h0) == ref["h0"], "H0 != reference")
            check(diagram_rows(h1) == ref["h1"], "H1 != reference")
        return sizes

    def reference(self, series, out):
        sizes = self.verify(series, out, "full", None)
        return {"simplices": sizes["simplices"], "h0": diagram_rows(out["h0"]),
                "h1": diagram_rows(out["h1"])}


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline:
    name = "cli-pipeline"
    sizes = {"full": {"n": 300, "points": 60}, "tiny": {"n": 150, "points": 20}}
    products = ("series.csv", "embedding.json", "diagram.json",
                "representatives.json", "diagram.csv", "pca.csv")

    def make_input(self, seed, size):
        return seed  # the synth subcommand generates the series from it

    def commands(self, seed, size, out_dir):
        sz = self.sizes[size]
        sub = ["--subsample", str(sz["points"])]
        return [
            ["synth", "--kind", "noisy_sine", "--n", str(sz["n"]),
             "--t-end", repr(12 * math.pi), "--sigma", "0.05",
             "--seed", str(seed)],
            ["embed"],
            ["ph", *sub, "--max-dim", "1"],
            ["optimize", *sub, "--kinds", ",".join(KINDS), "--policy", "full"],
            ["export"],
        ]

    def run(self, seed, size, workdir):
        out_dir = os.path.join(workdir, f"cli-{seed}")
        shutil.rmtree(out_dir, ignore_errors=True)
        for argv in self.commands(seed, size, out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cc.cli.main([argv[0], "--out-dir", out_dir, *argv[1:]])
            if code != 0:
                raise Failed(f"chronocycle {argv[0]} exited with {code}")
        return out_dir

    def verify(self, seed, out_dir, size, ref):
        try:
            return self._verify(out_dir, ref)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _verify(self, out_dir, ref):
        def load(name):
            with open(os.path.join(out_dir, name)) as fh:
                return json.load(fh)

        emb, dia, reps = (load(n) for n in
                          ("embedding.json", "diagram.json",
                           "representatives.json"))
        for name in self.products:
            check(os.path.isfile(os.path.join(out_dir, name)), f"no {name}")
        idx = dia["subsample_indices"]
        check(reps["subsample_indices"] == idx, "ph and optimize subsamples differ")
        local = {v: i for i, v in enumerate(idx)}
        pts = np.asarray(emb["points"], float)[idx]
        labels = np.asarray(emb["labels"], float)[idx]
        by_simplex = {(r["dim"], r["birth_simplex"], r["death_simplex"]): r
                      for r in dia["pairs"]}
        classes = reps["classes"]
        check(len(classes) >= len(KINDS), "no optimized classes")
        lp_rows = 0
        for i, cls in enumerate(classes):
            pr = cls["pair"]
            row = by_simplex.get((pr["dim"], pr["birth_simplex"],
                                  pr["death_simplex"]))
            check(row is not None, f"class {i}: not a row of diagram.json")
            costs = edge_costs(cls["kind"], pts, labels, cls["relaxed_birth"])
            lp_rows = max(lp_rows, len(costs))

            def edges(simplices):
                return [tuple(sorted(local[v] for v in s)) for s in simplices]

            check_class(f"class {i} ({cls['kind']})", cls["objective"],
                        cls["residual"], edges(cls["support"]), cls["coefficients"],
                        edges(row["initial_rep"]), costs,
                        not cls["fractional"])
            overlay = os.path.join(out_dir, f"overlay_{i}.csv")
            check(os.path.isfile(overlay), f"no overlay_{i}.csv")
        with open(os.path.join(out_dir, "diagram.csv")) as fh:
            check(sum(1 for _ in fh) == len(dia["pairs"]) + 1,
                  "diagram.csv rows != diagram pairs")
        with open(os.path.join(out_dir, "pca.csv")) as fh:
            check(sum(1 for _ in fh) == len(emb["points"]) + 1,
                  "pca.csv rows != embedding points")
        n = len(idx)
        written = sum(e.stat().st_size for e in os.scandir(out_dir))
        with open(os.path.join(out_dir, "diagram.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        sizes = {"points": n, "simplices": full_2skeleton(n),
                 "classes": len(classes),
                 "fractional": sum(c["fractional"] for c in classes),
                 "lp_rows": lp_rows,
                 "pivots": sum(c["iterations"] for c in classes),
                 "bytes_written": written, "diagram_sha256": digest}
        if ref is not None:
            check(digest == ref["diagram_sha256"], "diagram.json bytes differ")
            got = [c["objective"] for c in classes]
            check(len(got) == len(ref["objectives"])
                  and all(map(close, got, ref["objectives"])),
                  f"objectives {got} != reference {ref['objectives']}")
        return sizes

    def reference(self, seed, out_dir):
        with open(os.path.join(out_dir, "representatives.json")) as fh:
            objectives = [c["objective"] for c in json.load(fh)["classes"]]
        sizes = self.verify(seed, out_dir, "full", None)
        return {"diagram_sha256": sizes["diagram_sha256"],
                "objectives": objectives}


WORKLOADS = {w.name: w for w in (SineOptimize(), TorusPersistence(),
                                 CliPipeline())}
