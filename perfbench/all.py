"""Run every benchmark workload once and print the end-to-end table.

    python3 perfbench/all.py [--seed 0] [--seconds 20]

Each workload runs in its own process (so peak_rss_mb is that workload's),
one after the other.  Prints wall_s, setup_s, peak_rss_mb and failed_frac
with their units and bases; exits 1 if any repetition failed.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    rows, bad = [], 0
    for w in bench["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(OUT / "results" /
                  f"{w['name']}-seed{args.seed}-trace0.json") as fh:
            detail = json.load(fh)
        bad += res["failed"]
        rows.append((w["name"], res, detail))

    print(f"seed {args.seed}, {seconds:g} s per workload")
    print(f"{'workload':<18} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12}"
          f"  failed_frac  wall_s tail")
    for name, res, detail in rows:
        m = res["metrics"]
        frac = f"{res['failed']}/{res['attempted']}"
        tail = detail["wall_s_tail"]
        tail_s = (f"p{tail['percentile']:.0f} {tail['value']:.3f} s (n={tail['n']})"
                  if tail else f"none (n={len(detail['wall_s_samples'])})")
        print(f"{name:<18} {m['wall_s']['value']:>8.3f} s {m['setup_s']['value']:>7.3f} s"
              f" {m['peak_rss_mb']['value']:>9.1f} MB  {frac:>11}  {tail_s}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
