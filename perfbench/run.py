"""chronocycle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sine-optimize --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/chronocycle``.  The run
repeats the workload for about ``--seconds`` (at least once).
Repetition i feeds the pipeline the input made from ``input_seed(seed, i)``;
repetition 0 uses ``seed`` itself, so seed 0 reproduces the reference inputs.
Every repetition's products are verified; a repetition that raises or fails
verification counts as failed.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
``--trace 1`` runs each input twice, untraced and then traced, and reports
the per-layer metrics of ``tracing.METRICS``.  Human-readable lines come
first; the last line of standard output is the JSON result.  The full result
(environment stamp, every repetition's sizes, spans) is written under
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
SIZES = ("full", "tiny")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny: small inputs for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def input_seed(seed: int, i: int) -> int:
    """Input seed of repetition i: the run seed first, then derived ones."""
    if i == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _process_threads():
    try:
        with open("/proc/self/status") as fh:
            for ln in fh:
                if ln.startswith("Threads:"):
                    return int(ln.split()[1])
    except OSError:
        pass
    return None


def _commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _src_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "chronocycle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_stamp():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
        "loadavg": list(os.getloadavg()),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_times(samples=SETUP_SAMPLES):
    """Wall time of a fresh interpreter importing chronocycle.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chronocycle.cli"],
                       env=env, cwd=str(ROOT), check=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return times


def one_rep(w, seed, size, workdir, ref, tracer=None):
    """Run and verify one input; never raises for a failing product."""
    from workloads import Failed

    rec = {"input_seed": seed, "ok": False}
    inp = w.make_input(seed, size)
    gc.collect()
    out = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = w.run(inp, size, workdir)
    except Exception as exc:  # the package raised: count it, keep measuring
        rec["error"] = f"run: {type(exc).__name__}: {exc}"
    finally:
        rec["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rec["layers"] = tracer.metrics(rec["wall_s"])
        rec["spans"] = [[name, start - t0, end - t0, parent]
                        for name, start, end, parent in tracer.spans]
        tracer.reset()
    if out is not None:
        try:
            rec["sizes"] = w.verify(inp, out, size, ref if seed == 0 else None)
            rec["ok"] = True
            if tracer is not None:
                rec["layers"]["cli.bytes_written"] = rec["sizes"].get(
                    "bytes_written", 0)
        except Failed as exc:
            rec["error"] = f"verify: {exc}"
        except Exception as exc:  # a malformed product can raise anywhere
            rec["error"] = f"verify: {type(exc).__name__}: {exc}"
    return rec


def measure(w, seed, seconds, size, ref, workdir, traced):
    """Repeat the workload for about the given time; with tracing, each input
    runs untraced and then traced.

    Another repetition starts only if at least half of it fits in the time
    left (judged by the mean so far), so a workload whose repetition takes
    most of the time runs once instead of overrunning by a whole repetition.
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    plain, with_trace = [], []
    start = time.perf_counter()
    i = 0
    while True:
        s = input_seed(seed, i)
        plain.append(one_rep(w, s, size, workdir, ref))
        if traced:
            with_trace.append(one_rep(w, s, size, workdir, ref, tracer))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i / 2 >= seconds:
            return plain, with_trace


def tail(values):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(values)[k - 1], "n": n}


def median_walls(reps):
    ok = [r["wall_s"] for r in reps if r["ok"]]
    return statistics.median(ok or [r["wall_s"] for r in reps])


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chronocycle" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/chronocycle not found; run inside a full "
              "chronocycle checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    ref = None
    if args.size == "full":
        with open(HERE / "reference.json") as fh:
            ref = json.load(fh)[w.name]

    workdir = OUT / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else setup_times()
        plain, traced = measure(w, args.seed, args.seconds, args.size, ref,
                                str(workdir), bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reps = plain + traced
    attempted = len(reps)
    failed = sum(not r["ok"] for r in reps)
    walls = [r["wall_s"] for r in plain]
    if args.trace:
        per_rep = [r["layers"] for r in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_rep),
                          "unit": unit}
                   for name, unit in tracing.METRICS.items()}
        metrics["trace.overhead_s"]["value"] = (
            median_walls(traced) - median_walls(plain))
    else:
        metrics = {
            "wall_s": {"value": median_walls(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env_stamp(),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "fractional_classes": [
            sum(r.get("sizes", {}).get("fractional", 0) for r in reps),
            sum(r.get("sizes", {}).get("classes", 0) for r in reps)],
        "wall_s_samples": walls, "wall_s_tail": tail(walls),
        "setup_s_samples": setup, "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(results / f"{stem}-spans.json", "w") as fh:
            json.dump([{"input_seed": r["input_seed"], "spans": r["spans"]}
                       for r in traced], fh)

    report(result, results / f"{stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(result, path):
    env = result["env"]
    print(f"{result['workload']} seed {result['seed']}: "
          f"{result['attempted']} repetitions, failed_frac "
          f"{result['failed']}/{result['attempted']} = {result['failed_frac']:g}")
    frac, classes = result["fractional_classes"]
    if classes:
        print(f"  fractional LP optima (flagged, verified as real cycles): "
              f"{frac} of {classes} classes")
    for r in result["reps"]:
        if not r["ok"]:
            print(f"  FAILED input {r['input_seed']}: {r.get('error')}")
    print(f"  sizes (input {result['reps'][0]['input_seed']}): "
          f"{result['reps'][0].get('sizes')}")
    t = result["wall_s_tail"]
    print("  wall_s tail: " + (
        f"p{t['percentile']:.0f} = {t['value']:.4f} s (n={t['n']})" if t
        else f"none (n={len(result['wall_s_samples'])}; needs 11)"))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, scipy {env['scipy']}, blas_threads "
          f"{env['blas_threads']}, commit {env['commit']}, src "
          f"{env['src_sha256'][:12]}")
    print(f"  result: {path}")


if __name__ == "__main__":
    sys.exit(main())
