"""Command-line pipeline: synth -> embed -> ph -> optimize -> export.

Configuration comes from an optional key=value file plus per-flag overrides;
every numeric field is validated up front so bad configs fail as usage
errors before any work starts.  Exit codes: 0 ok, 1 usage, 2 data error,
3 solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
        if self.sigma < 0:
            raise UsageError("sigma must be non-negative")
        if not self.t_end > 0:
            raise UsageError("t_end must be positive")
        if not 0 < self.threshold_fraction <= 1:
            raise UsageError("threshold_fraction must be in (0, 1]")
        if self.tau_count < 1:
            raise UsageError("tau_count must be positive")
        for name in ("tau_min", "tau_max", "tau"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise UsageError(f"{name} must be positive")
        if self.d is not None and self.d < 1:
            raise UsageError("d must be at least 1")
        self.rips_config()
        if self.subsample < 2:
            raise UsageError("subsample must be at least 2")
        if self.simplex_cap < 1:
            raise UsageError("simplex_cap must be positive")
        if self.kind not in ("noisy_sine", "double_sine"):
            raise UsageError(f"unknown synth kind {self.kind!r}")
        if self.significance is not None and self.significance < 0:
            raise UsageError("significance must be non-negative")
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


def load_config_file(path) -> dict:
    """TOML-like key = value lines; # comments; quotes optional."""
    out = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, _, raw = line.partition("=")
                key, raw = key.strip(), raw.strip().strip("\"'")
                out[key] = _convert(key, raw)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return out


def build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        for key, val in load_config_file(args.config).items():
            setattr(cfg, key, val)
    for key in _FIELD_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, _convert(key, val) if isinstance(val, str) else val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# deterministic file output


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return None
    return obj


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


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


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.kind == "noisy_sine":
        ts = noisy_sine(n=cfg.n, t_end=cfg.t_end, sigma=cfg.sigma, seed=cfg.seed)
    else:
        ts = double_sine(n=cfg.n, t_end=cfg.t_end)
    out = _path(cfg, "series.csv")
    write_series_csv(ts, out)
    print(out)
    return 0


def cmd_embed(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    src = cfg.input or _path(cfg, "series.csv")
    try:
        ts = read_series_csv(src)
    except OSError as exc:
        raise DataError(f"cannot read series {src}: {exc}")
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
    out = _path(cfg, "embedding.json")
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
    idx = subsample_indices(len(pc), min(cfg.subsample, len(pc)))
    cloud = LabeledPointCloud(points=pc.points[idx], labels=pc.labels[idx])
    filt = build_rips(cloud, cfg.rips_config(), cap=cfg.simplex_cap)
    return cloud, [int(i) for i in idx], filt, reduce_filtration(filt)


def cmd_ph(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _, to_emb, filt, dec = _reduced_subsample(cfg)
    rows = diagram_to_json(full_diagram(dec, cfg.max_dim), filt)
    for row in rows:
        row["initial_rep"] = [[to_emb[v] for v in s] for s in row["initial_rep"]]
    out = _path(cfg, "diagram.json")
    write_json(out, {
        "schema": 1,
        "subsample_indices": to_emb,
        "max_dim": cfg.max_dim,
        "pairs": rows,
    })
    print(out)
    return 0


def cmd_optimize(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
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
        support = [
            [to_emb[v] for v in filt.simplices[g]] for g in sol.support
        ]
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
            "support": support,
            "coefficients": sol.support_coefficients,
            "support_labels": sorted(
                {float(cloud.labels[v]) for s in sol.support
                 for v in filt.simplices[s]}
            ),
        })
    out = _path(cfg, "representatives.json")
    write_json(out, {"schema": 1, "subsample_indices": to_emb, "classes": rows})
    print(out)
    return 0


def cmd_export(cfg: PipelineConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    dia = read_json(_path(cfg, "diagram.json"))
    with open(_path(cfg, "diagram.csv"), "w", newline="") as fh:
        fh.write("dim,birth,death\n")
        for row in dia["pairs"]:
            death = "" if row["death"] is None else repr(float(row["death"]))
            fh.write(f"{row['dim']},{float(row['birth'])!r},{death}\n")

    emb = read_json(_path(cfg, "embedding.json"))
    pts = np.asarray(emb["points"], float)
    labels = np.asarray(emb["labels"], float)
    centered = pts - pts.mean(axis=0)
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
        fh.write("pc1,pc2,pc3,label\n")
        for row, lab in zip(proj, labels):
            fh.write(
                f"{float(row[0])!r},{float(row[1])!r},"
                f"{float(row[2])!r},{float(lab)!r}\n"
            )

    reps_path = _path(cfg, "representatives.json")
    if os.path.exists(reps_path):
        reps = read_json(reps_path)
        series_path = cfg.input or _path(cfg, "series.csv")
        try:
            ts = read_series_csv(series_path)
        except OSError as exc:
            raise DataError(f"cannot read series {series_path}: {exc}")
        span = (emb["d"] - 1) * emb["tau"]
        for i, row in enumerate(reps["classes"]):
            starts = sorted({lab for lab in row["support_labels"]})
            path = _path(cfg, f"overlay_{i}.csv")
            with open(path, "w", newline="") as fh:
                fh.write("t,value,in_support\n")
                for t, v in zip(ts.times(), ts.values):
                    flag = int(
                        any(s - 1e-12 <= t <= s + span + 1e-12 for s in starts)
                    )
                    fh.write(f"{float(t)!r},{float(v)!r},{flag}\n")
    print(_path(cfg, "diagram.csv"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.add_argument("--seed", type=int, help="random seed")


def make_parser() -> _Parser:
    parser = _Parser(prog="chronocycle", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic series CSV")
    _add_common(p)
    p.add_argument("--kind", choices=["noisy_sine", "double_sine"])
    p.add_argument("--n", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--sigma", type=float)

    p = subs.add_parser("embed", help="sliding-window embedding of a series")
    _add_common(p)
    p.add_argument("--input", help="series CSV (default out_dir/series.csv)")
    p.add_argument("--threshold-fraction", dest="threshold_fraction", type=float)
    p.add_argument("--tau-count", dest="tau_count", type=int)
    p.add_argument("--tau-min", dest="tau_min", type=float)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--d", type=int, help="override the embedding dimension")
    p.add_argument("--tau", type=float, help="override the delay")

    p = subs.add_parser("ph", help="Rips persistence of the embedding")
    _add_common(p)
    p.add_argument("--max-dim", dest="max_dim", type=int)
    p.add_argument("--max-radius", dest="max_radius")
    p.add_argument("--subsample", type=int)
    p.add_argument("--simplex-cap", dest="simplex_cap", type=int)

    p = subs.add_parser("optimize", help="time-optimal cycle representatives")
    _add_common(p)
    p.add_argument("--max-dim", dest="max_dim", type=int)
    p.add_argument("--max-radius", dest="max_radius")
    p.add_argument("--subsample", type=int)
    p.add_argument("--simplex-cap", dest="simplex_cap", type=int)
    p.add_argument("--policy", help="full | fraction:RHO | absolute:EPS")
    p.add_argument("--kinds", help="comma list: vertex,simplex,length")
    p.add_argument("--significance", type=float)
    p.add_argument("--dim", dest="optimize_dim", type=int)

    p = subs.add_parser("export", help="flatten outputs to CSV plot tables")
    _add_common(p)
    p.add_argument("--input", help="series CSV for overlays")

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
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverStalled as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
