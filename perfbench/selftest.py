"""Self-test of the benchmark: a tiny-size smoke run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json and each trace mode it runs run.py on
tiny inputs for a fraction of a second and checks the printed result line
and the result file against the benchmark's schema, including that traced
self times plus the untraced remainder add up to the traced wall time.  It
also checks that run.py fails without a result when only BENCHMARK.json and
the benchmark's own files are present.  Takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FILE_KEYS = {"workload", "seed", "seconds", "trace", "size", "env", "attempted",
             "failed", "failed_frac", "fractional_classes", "wall_s_samples",
             "wall_s_tail", "setup_s_samples", "peak_rss_mb", "metrics", "reps"}
ENV_KEYS = {"nproc", "cpu_count", "machine", "python", "numpy", "scipy",
            "blas_threads", "process_threads", "loadavg", "commit",
            "src_sha256"}
SEED = 1


def fail(msg):
    raise SystemExit(f"selftest FAILED: {msg}")


def run(cwd, script, workload, trace):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=170)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def check_line(line, expected, what):
    res = json.loads(line)
    if set(res) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{what}: not correct: {res}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        fail(f"{what}: attempted {res['attempted']!r}")
    if set(res["metrics"]) != set(expected):
        fail(f"{what}: metrics {sorted(set(res['metrics']) ^ set(expected))}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            fail(f"{what}: metric {name} = {m}")
        if not is_number(m["value"]):
            fail(f"{what}: metric {name} value {m['value']!r}")


def check_file(path, trace, what):
    with open(path) as fh:
        res = json.load(fh)
    if set(res) != FILE_KEYS or set(res["env"]) != ENV_KEYS:
        fail(f"{what}: result file keys")
    if res["env"]["nproc"] < 1 or not res["reps"]:
        fail(f"{what}: env or reps")
    for rep in res["reps"]:
        if not rep["ok"] or not is_number(rep["wall_s"]) or not rep["sizes"]:
            fail(f"{what}: repetition {rep}")
        if "layers" in rep:
            m = rep["layers"]
            total = sum(v for k, v in m.items() if k.endswith(".s"))
            if abs(total + m["trace.untraced_s"] - m["trace.wall_s"]) > 1e-6:
                fail(f"{what}: self times do not add up to the traced wall")
    traced = sum("layers" in rep for rep in res["reps"])
    if (traced > 0) != bool(trace):
        fail(f"{what}: traced repetitions {traced} with --trace {trace}")
    if trace:
        with open(str(path).replace(".json", "-spans.json")) as fh:
            spans = json.load(fh)
        if len(spans) != traced or not all(s["spans"] for s in spans):
            fail(f"{what}: spans file")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            what = f"{w['name']} --trace {trace}"
            proc = run(ROOT, HERE / "run.py", w["name"], trace)
            if proc.returncode != 0:
                fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
            check_line(proc.stdout.strip().splitlines()[-1], expected[trace],
                       what)
            check_file(OUT / "results" / f"{w['name']}-seed{SEED}-trace{trace}"
                       ".json", trace, what)
            print(f"ok  {what}")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = bench["workloads"][0]["name"]
        proc = run(bare, bare / "perfbench" / "run.py", name, 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("run.py printed a result without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without a result outside a full checkout")


if __name__ == "__main__":
    main()
