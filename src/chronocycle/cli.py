"""Command-line pipeline: synth -> embed -> ph -> optimize -> export.

Every setting is a PipelineConfig field, set by a key = value file line or by
a flag named as the key with dashes (--dim sets optimize_dim); flags win.
Both are parsed by the field's type and validated up front, so bad settings
fail as usage errors before any work starts.  Exit codes: 0 ok, 1 usage,
2 data error, 3 solver error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Union, get_args, get_type_hints

import numpy as np

from .embedding import (
    EmbeddingParams,
    LabeledPointCloud,
    best_delay,
    default_tau_grid,
    delay_curve,
    embedding_dimension,
    read_series_csv,
    sliding_window,
    spectrum,
    subsample,
    subsample_indices,
    write_series_csv,
)
from .lpsolver import SolverStalled
from .optimize import RelaxationPolicy, optimize_all
from .reduction import diagram_to_json, full_diagram, reduce as reduce_filtration
from .rips import ENCLOSING, RipsConfig, build_rips
from .signals import double_sine, noisy_sine
from .weights import KINDS


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route through exit 1
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class PipelineConfig:
    input: Optional[str] = None
    out_dir: str = "."
    seed: int = 0
    kind: str = "double_sine"
    n: int = 1000
    t_end: float = 60 * math.pi
    sigma: float = 0.1
    threshold_fraction: float = 0.1
    tau_count: int = 200
    tau_min: Optional[float] = None
    tau_max: Optional[float] = None
    d: Optional[int] = None
    tau: Optional[float] = None
    max_dim: int = 1
    max_radius: Union[float, str] = ENCLOSING
    subsample: int = 1000
    simplex_cap: int = 5_000_000
    policy: str = "full"
    kinds: str = "vertex,simplex,length"
    significance: Optional[float] = None
    optimize_dim: int = 1

    def validate(self):
        if self.n < 2:
            raise UsageError("n must be at least 2")
        # written so that NaN fails each test
        if not 0 <= self.sigma < math.inf:
            raise UsageError("sigma must be finite and non-negative")
        if not 0 < self.t_end < math.inf:
            raise UsageError("t_end must be finite and positive")
        if not 0 < self.threshold_fraction <= 1:
            raise UsageError("threshold_fraction must be in (0, 1]")
        if self.tau_count < 1:
            raise UsageError("tau_count must be positive")
        for name in ("tau_min", "tau_max", "tau"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise UsageError(f"{name} must be finite and positive")
        if self.d is not None and self.d < 1:
            raise UsageError("d must be at least 1")
        self.rips_config()
        if self.subsample < 2:
            raise UsageError("subsample must be at least 2")
        if self.simplex_cap < 1:
            raise UsageError("simplex_cap must be positive")
        if self.kind not in ("noisy_sine", "double_sine"):
            raise UsageError(f"unknown synth kind {self.kind!r}")
        if self.significance is not None and not 0 <= self.significance < math.inf:
            raise UsageError("significance must be finite and non-negative")
        if not 0 <= self.optimize_dim <= self.max_dim:
            raise UsageError("optimize_dim must lie within [0, max_dim]")
        self.parse_policy()
        if not self.kind_list():
            raise UsageError("kinds must name at least one weight kind")

    def rips_config(self) -> RipsConfig:
        try:
            return RipsConfig(max_dim=self.max_dim, max_radius=self.max_radius)
        except ValueError as exc:
            raise UsageError(str(exc))

    def parse_policy(self) -> RelaxationPolicy:
        spec = self.policy.strip()
        try:
            if spec == "full":
                return RelaxationPolicy.full()
            if spec.startswith("fraction:"):
                return RelaxationPolicy.fraction(float(spec.split(":", 1)[1]))
            if spec.startswith("absolute:"):
                return RelaxationPolicy.absolute(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad policy {self.policy!r}: {exc}")
        raise UsageError(
            f"bad policy {self.policy!r} (full | fraction:RHO | absolute:EPS)"
        )

    def kind_list(self) -> list[str]:
        out = []
        for part in self.kinds.split(","):
            part = part.strip()
            if not part:
                continue
            if part not in KINDS:
                raise UsageError(f"unknown weight kind {part!r}")
            out.append(part)
        return out


_FIELD_TYPES = get_type_hints(PipelineConfig)


def _convert(key: str, raw: str):
    """Parse raw as the field's declared type: the first member of an
    Optional or Union, so max_radius is a float unless it is 'enclosing'."""
    if key not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {key!r}")
    if key == "max_radius" and raw == ENCLOSING:
        return raw
    field_type = _FIELD_TYPES[key]
    try:
        return (get_args(field_type) or (field_type,))[0](raw)
    except ValueError:
        raise UsageError(f"bad value for {key}: {raw!r}")


# an optional key = value, then an optional comment; a value in quotes runs
# to its closing quote, so a # inside it is part of the value
_CONFIG_LINE = re.compile(
    r"""(?:([^=#]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?))?\s*(?:#.*)?""")


def load_config_file(path) -> dict:
    """TOML-like key = value lines; # comments; quotes optional."""
    out = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                match = _CONFIG_LINE.fullmatch(line.strip())
                if match is None:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, raw = match.groups()
                if key is not None:
                    out[key] = _convert(key, raw.strip("\"'"))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return out


def build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        for key, val in load_config_file(args.config).items():
            setattr(cfg, key, val)
    for key in _FIELD_TYPES:
        raw = getattr(args, key, None)
        if raw is not None:
            setattr(cfg, key, _convert(key, raw))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# deterministic file output


def write_json(path, obj):
    """Sorted, compact JSON, numpy arrays and scalars as lists and numbers;
    a NaN or infinity raises ValueError before the file opens."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=lambda a: a.tolist())
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}")


def _path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _fresh(cfg: PipelineConfig, name: str) -> str:
    """A product's path, cleared so that a failed command leaves no stale file."""
    path = _path(cfg, name)
    if os.path.exists(path):
        os.remove(path)
    return path


def _read_series(cfg: PipelineConfig):
    """The input series, ``out_dir/series.csv`` unless ``input`` names one."""
    src = cfg.input or _path(cfg, "series.csv")
    try:
        return read_series_csv(src)
    except OSError as exc:
        raise DataError(f"cannot read series {src}: {exc}")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: PipelineConfig) -> int:
    out = _fresh(cfg, "series.csv")
    if cfg.kind == "noisy_sine":
        ts = noisy_sine(n=cfg.n, t_end=cfg.t_end, sigma=cfg.sigma, seed=cfg.seed)
    else:
        ts = double_sine(n=cfg.n, t_end=cfg.t_end)
    write_series_csv(ts, out)
    print(out)
    return 0


def cmd_embed(cfg: PipelineConfig) -> int:
    out = _fresh(cfg, "embedding.json")
    ts = _read_series(cfg)
    s = spectrum(ts, cfg.threshold_fraction)
    d = cfg.d if cfg.d is not None else embedding_dimension(s)
    default = default_tau_grid(s, cfg.tau_count)
    lo = cfg.tau_min if cfg.tau_min is not None else default[0]
    hi = cfg.tau_max if cfg.tau_max is not None else default[-1]
    if not lo <= hi:
        raise UsageError("tau_min must not exceed tau_max")
    curve = delay_curve(s, d, np.linspace(lo, hi, cfg.tau_count))
    tau = cfg.tau if cfg.tau is not None else best_delay(curve)
    pc = sliding_window(ts, EmbeddingParams(d=d, tau=tau))
    write_json(out, {
        "schema": 1,
        "d": d,
        "tau": tau,
        "curve": [[t, sc] for t, sc in curve],
        "peaks": s.peaks,
        "points": pc.points,
        "labels": pc.labels,
    })
    print(out)
    return 0


def _reduced_subsample(cfg: PipelineConfig):
    """Reduced Rips filtration of ``cfg.subsample`` evenly spaced embedding
    points, refused (exit 2) before it grows past the simplex cap; also
    returns the cloud and each cloud vertex's embedding index."""
    emb = read_json(_path(cfg, "embedding.json"))
    if len(emb["points"]) < 2:
        raise DataError("embedding has fewer than 2 points")
    pc = LabeledPointCloud(points=emb["points"], labels=emb["labels"])
    cloud = subsample(pc, min(cfg.subsample, len(pc)))
    filt = build_rips(cloud, cfg.rips_config(), cap=cfg.simplex_cap)
    return cloud, subsample_indices(len(pc), len(cloud)), filt, reduce_filtration(filt)


def _vertices(filt, dim: int, ids: list[int]) -> np.ndarray:
    """The cloud vertex rows of the dim-simplices ``ids``, for the products."""
    return filt.levels[dim][filt.rows[ids]]


def cmd_ph(cfg: PipelineConfig) -> int:
    out = _fresh(cfg, "diagram.json")
    _, to_emb, filt, dec = _reduced_subsample(cfg)
    pairs = full_diagram(dec, cfg.max_dim)
    rows = diagram_to_json(pairs)
    for row, pr in zip(rows, pairs):
        row["initial_rep"] = to_emb[_vertices(filt, pr.dim, pr.initial_rep.support)]
    write_json(out, {
        "schema": 1,
        "subsample_indices": to_emb,
        "max_dim": cfg.max_dim,
        "pairs": rows,
    })
    print(out)
    return 0


def cmd_optimize(cfg: PipelineConfig) -> int:
    out = _fresh(cfg, "representatives.json")
    if not os.path.exists(_path(cfg, "diagram.json")):
        raise DataError("diagram.json not found: run the ph command first")
    cloud, to_emb, filt, dec = _reduced_subsample(cfg)
    reps = optimize_all(
        dec.pairs(cfg.optimize_dim),
        cfg.parse_policy(),
        cfg.kind_list(),
        filt,
        dec,
        cloud.labels,
        significance=cfg.significance,
    )
    rows = []
    for rep in reps:
        sol = rep.solution
        verts = _vertices(filt, rep.pair.dim, sol.support)
        rows.append({
            "pair": diagram_to_json([rep.pair])[0],
            "kind": rep.loss_kind,
            "policy": rep.policy.describe(),
            "relaxed_birth": rep.relaxed_birth,
            "objective": sol.objective,
            "residual": sol.residual,
            "iterations": sol.iterations,
            "dispersion": rep.dispersion,
            "fractional": not rep.rounded_is_cycle,
            "support": to_emb[verts],
            "coefficients": sol.support_coefficients,
            "support_labels": np.unique(cloud.labels[verts]),
        })
    write_json(out, {"schema": 1, "subsample_indices": to_emb, "classes": rows})
    print(out)
    return 0


def _in_windows(times: np.ndarray, starts, span: float) -> np.ndarray:
    """1 where a time lies in a window [s - 1e-12, s + span + 1e-12] of some
    start s, else 0.  Both bounds ascend with s, so of the windows that open
    at or before t, the last one to open also closes last: one
    ``searchsorted`` finds it.  A leading window (-inf, -inf] holds no time
    and stands for "none opens before t"."""
    s = np.sort(np.asarray(starts, dtype=float))
    lo = np.concatenate([[-np.inf], s - 1e-12])
    hi = np.concatenate([[-np.inf], s + span + 1e-12])
    last = np.searchsorted(lo, times, side="right") - 1
    return (hi[last] >= times).astype(int)


def cmd_export(cfg: PipelineConfig) -> int:
    # an earlier export's tables go first, so none outlives its run's products
    for name in os.listdir(cfg.out_dir):
        if re.fullmatch(r"diagram\.csv|pca\.csv|overlay_\d+\.csv", name):
            os.remove(_path(cfg, name))
    # all is read first: a run that fails on a read writes no table
    dia = read_json(_path(cfg, "diagram.json"))
    emb = read_json(_path(cfg, "embedding.json"))
    pc = LabeledPointCloud(points=emb["points"], labels=emb["labels"])
    reps_path = _path(cfg, "representatives.json")
    reps = read_json(reps_path) if os.path.exists(reps_path) else None
    ts = _read_series(cfg) if reps is not None else None
    with open(_path(cfg, "diagram.csv"), "w", newline="") as fh:
        fh.write("dim,birth,death\n")
        for row in dia["pairs"]:
            death = "" if row["death"] is None else repr(float(row["death"]))
            fh.write(f"{row['dim']},{float(row['birth'])!r},{death}\n")

    centered = pc.points - pc.points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:3]
    # deterministic orientation: largest-magnitude loading positive
    for i in range(len(comps)):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i][j] < 0:
            comps[i] = -comps[i]
    proj = centered @ comps.T
    if proj.shape[1] < 3:
        proj = np.hstack([proj, np.zeros((len(proj), 3 - proj.shape[1]))])
    with open(_path(cfg, "pca.csv"), "w", newline="") as fh:
        fh.write("pc1,pc2,pc3,label\n" + "".join(
            f"{a!r},{b!r},{c!r},{lab!r}\n"
            for (a, b, c), lab in zip(proj.tolist(), pc.labels.tolist())
        ))

    if reps is not None:
        span = (emb["d"] - 1) * emb["tau"]
        times = ts.times()
        samples = list(zip(times.tolist(), ts.values.tolist()))
        for i, row in enumerate(reps["classes"]):
            flags = _in_windows(times, row["support_labels"], span).tolist()
            with open(_path(cfg, f"overlay_{i}.csv"), "w", newline="") as fh:
                fh.write("t,value,in_support\n" + "".join(
                    f"{t!r},{v!r},{flag}\n" for (t, v), flag in zip(samples, flags)
                ))
    print(_path(cfg, "diagram.csv"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# subcommand -> (help line, the PipelineConfig fields it takes as flags)
_RIPS = ("max_dim", "max_radius", "subsample", "simplex_cap")
_SUBCOMMANDS = {
    "synth": ("generate a synthetic series CSV",
              ("kind", "n", "t_end", "sigma", "seed")),
    "embed": ("sliding-window embedding of a series",
              ("input", "threshold_fraction", "tau_count", "tau_min", "tau_max",
               "d", "tau")),
    "ph": ("Rips persistence of the embedding", _RIPS),
    "optimize": ("time-optimal cycle representatives",
                 (*_RIPS, "policy", "kinds", "significance", "optimize_dim")),
    "export": ("flatten outputs to CSV plot tables", ("input",)),
}
_FLAGS = {"optimize_dim": "--dim"}
_HELP = {
    "config": "key = value configuration file",
    "out_dir": "output directory",
    "seed": "random seed",
    "kind": "noisy_sine | double_sine",
    "input": "series CSV (default out_dir/series.csv)",
    "d": "override the embedding dimension",
    "tau": "override the delay",
    "policy": "full | fraction:RHO | absolute:EPS; the last two refuse "
              "essential classes, so --dim 0 needs full",
    "kinds": "comma list: vertex,simplex,length",
}


@functools.cache
def make_parser() -> _Parser:
    """Each subcommand takes --config, --out-dir and its own fields; synth's
    include --seed, which no other subcommand reads.
    Flag values stay strings: build_config parses them as config values.
    Built once per process: each parse makes a fresh namespace, so no call
    sees another's flags."""
    parser = _Parser(prog="chronocycle", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, fields) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for name in ("config", "out_dir", *fields):
            flag = _FLAGS.get(name, "--" + name.replace("_", "-"))
            sub.add_argument(flag, dest=name, help=_HELP.get(name))
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "embed": cmd_embed,
    "ph": cmd_ph,
    "optimize": cmd_optimize,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverStalled as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
