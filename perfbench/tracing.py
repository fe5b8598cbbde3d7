"""Outside-in span tracing of the chronocycle layers.

The package itself carries no spans.  While a ``Tracer`` is installed it
replaces each layer's public functions with timing wrappers in every
namespace that binds them, which is where their callers look them up
(``chronocycle.optimize.solve``, ``chronocycle.lp.revised_simplex``,
``chronocycle.cli.build_rips`` ...).  Uninstalling restores the originals.

A span is (name, start, end, parent).  Spans stay in memory; the caller
writes them out when the run ends.  A layer's self time is the total
duration of its spans minus the part covered by their child spans.
Counts are read after the traced repetition from the objects the wrapped
calls returned (filtration sizes, pivots, LP shapes, reduction blocks), so
computing them adds nothing to any span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer): the public functions wrapped while tracing.
# signals is left unwrapped: it runs under 1 ms and only produces inputs.
TARGETS = (
    ("embedding", "spectrum", "embedding"),
    ("embedding", "embedding_dimension", "embedding"),
    ("embedding", "default_tau_grid", "embedding"),
    ("embedding", "optimal_delay", "embedding"),
    ("embedding", "orthogonality_score", "embedding"),
    ("embedding", "sliding_window", "embedding"),
    ("embedding", "subsample", "embedding"),
    ("embedding", "subsample_indices", "embedding"),
    ("embedding", "read_series_csv", "embedding"),
    ("embedding", "write_series_csv", "embedding"),
    ("rips", "count_rips_simplices", "rips"),
    ("rips", "build_rips", "rips"),
    ("complexes", "boundary_matrix", "complexes"),
    ("complexes", "boundary", "complexes"),
    ("complexes", "orient_chain", "complexes"),
    ("reduction", "reduce", "reduction"),
    ("reduction", "full_diagram", "reduction"),
    ("weights", "weights_for", "weights"),
    ("lp", "restrict_sets", "lp"),
    ("lp", "build_lp", "lp"),
    ("lp", "solve", "lp"),
    ("lpsolver", "revised_simplex", "lpsolver"),
    ("optimize", "optimize_all", "optimize"),
    ("optimize", "optimize_class", "optimize"),
    ("optimize", "significant_pairs", "optimize"),
    ("cli", "main", "cli"),
)

# span name -> per-layer time metric its self time adds to, besides the
# layer's total "<layer>.s"
TIME_METRIC = {
    "embedding.optimal_delay": "embedding.delay_s",
    "embedding.orthogonality_score": "embedding.delay_s",
    "rips.count_rips_simplices": "rips.count_s",
    "rips.build_rips": "rips.build_s",
    "complexes.Filtration": "complexes.filtration_s",
    "complexes.boundary_matrix": "complexes.boundary_matrix_s",
    "complexes.boundary": "complexes.boundary_s",
    "reduction.reduce": "reduction.reduce_s",
    "reduction.pairs": "reduction.pairs_s",
    "reduction.full_diagram": "reduction.pairs_s",
    "lp.restrict_sets": "lp.restrict_s",
    "lp.build_lp": "lp.build_s",
    "lp.solve": "lp.solve_s",
}

CLI_COMMANDS = ("synth", "embed", "ph", "optimize", "export")

# every per-layer metric with its unit, in report order
METRICS = {
    "lpsolver.s": "s", "lpsolver.pivots": "count",
    "lp.s": "s", "lp.restrict_s": "s", "lp.build_s": "s", "lp.solve_s": "s",
    "lp.rows": "count", "lp.cols": "count", "lp.residual_max": "1",
    "weights.s": "s", "weights.nnz": "count",
    "reduction.s": "s", "reduction.reduce_s": "s", "reduction.pairs_s": "s",
    "reduction.columns": "count", "reduction.column_additions": "count",
    "reduction.useful_ratio": "ratio", "reduction.pairs_h1": "count",
    "rips.s": "s", "rips.count_s": "s", "rips.count_calls": "count",
    "rips.build_s": "s", "rips.build_calls": "count",
    "rips.simplices_d0": "count", "rips.simplices_d1": "count",
    "rips.simplices_d2": "count",
    "complexes.s": "s", "complexes.filtration_s": "s",
    "complexes.boundary_matrix_s": "s",
    "complexes.boundary_matrix_calls": "count", "complexes.boundary_s": "s",
    "optimize.s": "s", "optimize.classes": "count",
    "optimize.rounded_ratio": "ratio",
    "embedding.s": "s", "embedding.delay_s": "s", "embedding.tau_evals": "count",
    "cli.s": "s", "cli.synth_s": "s", "cli.embed_s": "s", "cli.ph_s": "s",
    "cli.optimize_s": "s", "cli.export_s": "s", "cli.bytes_written": "bytes",
    "trace.wall_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Span recorder for one traced repetition at a time."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            results[name].append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        pkg = importlib.import_module("chronocycle")
        mods = {m: importlib.import_module(f"chronocycle.{m}") for m in
                ("signals", "embedding", "rips", "complexes", "reduction",
                 "weights", "lp", "lpsolver", "optimize", "cli")}
        namespaces = [pkg, *mods.values()]
        for mod, attr, layer in TARGETS:
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(f"{layer}.{attr}", orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, key, wrapped)
        # the Rips builder is the Filtration constructor's caller
        self._patch(mods["rips"], "Filtration",
                    self._wrap("complexes.Filtration", mods["rips"].Filtration))
        rd = mods["reduction"].ReducedDecomposition
        self._patch(rd, "pairs", self._wrap("reduction.pairs", rd.pairs))
        commands = mods["cli"]._COMMANDS
        for cmd in CLI_COMMANDS:
            orig = commands[cmd]
            self._restore.append((commands, cmd, orig))
            commands[cmd] = self._wrap(f"cli.{cmd}", orig)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def reset(self):
        self.spans.clear()
        self.results.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        m = {name: 0.0 for name in METRICS}
        own = self.self_times()
        covered = 0.0
        for i, ((name, start, end, parent), self_s) in enumerate(
                zip(self.spans, own)):
            if parent < 0:
                covered += end - start
            layer = name.split(".", 1)[0]
            m[f"{layer}.s"] += self_s
            if name in TIME_METRIC:
                m[TIME_METRIC[name]] += self_s
            elif name == "cli.main":
                # parsing and config belong to the command main dispatches to
                cmd = next((s[0] for s in self.spans[i + 1:] if s[3] == i
                            and s[0].startswith("cli.")), None)
                if cmd is not None:
                    m[f"{cmd}_s"] += self_s
            elif layer == "cli":
                m[f"{name}_s"] += self_s
        counts = Counter(name for name, *_ in self.spans)
        m["rips.count_calls"] = counts["rips.count_rips_simplices"]
        m["rips.build_calls"] = counts["rips.build_rips"]
        m["complexes.boundary_matrix_calls"] = counts["complexes.boundary_matrix"]
        m["embedding.tau_evals"] = counts["embedding.orthogonality_score"]
        m["trace.wall_s"] = wall_s
        m["trace.untraced_s"] = wall_s - covered
        m["trace.spans"] = len(self.spans)
        m.update(self._result_counts())
        return m

    def _result_counts(self) -> dict[str, float]:
        r = self.results
        m: dict[str, float] = {}
        m["lpsolver.pivots"] = sum(res.iterations
                                   for res in r["lpsolver.revised_simplex"])
        shapes = [lp.A.shape for lp in r["lp.build_lp"]]
        m["lp.rows"] = max((s[0] for s in shapes), default=0)
        m["lp.cols"] = max((s[1] for s in shapes), default=0)
        m["lp.residual_max"] = max((sol.residual for sol in r["lp.solve"]),
                                   default=0.0)
        m["weights.nnz"] = sum(w.entries.nnz for w in r["weights.weights_for"])
        columns = additions = top_cols = top_nonzero = 0
        for dec in r["reduction.reduce"]:
            top = max(dec.blocks, default=None)
            for p, blk in dec.blocks.items():
                columns += len(blk.cols)
                additions += sum(len(a) for a in blk.adds)
                if p == top:
                    top_cols += len(blk.cols)
                    top_nonzero += sum(1 for col in blk.r if col)
        m["reduction.columns"] = columns
        m["reduction.column_additions"] = additions
        m["reduction.useful_ratio"] = top_nonzero / top_cols if top_cols else 0.0
        h1 = [prs for prs in r["reduction.pairs"] if prs and prs[0].dim == 1]
        m["reduction.pairs_h1"] = len(h1[-1]) if h1 else 0
        built = r["rips.build_rips"]
        if built:
            f = built[-1]
            for p in range(3):
                m[f"rips.simplices_d{p}"] = f.n_simplices(p)
        reps = [rep for reps in r["optimize.optimize_all"] for rep in reps]
        m["optimize.classes"] = len(reps)
        m["optimize.rounded_ratio"] = (
            sum(rep.rounded_is_cycle for rep in reps) / len(reps) if reps else 0.0
        )
        return m
