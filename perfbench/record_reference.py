"""Record the seed-0 reference products that run.py checks against.

    python3 perfbench/record_reference.py

Runs every workload once on input seed 0 at full size, verifies it with the
checks that hold for any input, and writes perfbench/reference.json: problem
sizes, (birth, death) pairs per dimension, LP objectives and the sha256 of
the CLI's diagram.json.  Re-record only when a change is meant to move these
products, and say so in that change.
"""

import json
import re
import shutil
import sys

from run import HERE, OUT, SRC


def main():
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = OUT / "work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for w in WORKLOADS.values():
            inp = w.make_input(0, "full")
            refs[w.name] = w.reference(inp, w.run(inp, "full", str(workdir)))
            print(f"{w.name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per innermost list: a (birth, death) pair, sizes, objectives
    text = re.sub(r"\[\s+([^][]*?)\s+\]",
                  lambda m: "[" + ", ".join(re.split(r",\s+", m[1])) + "]",
                  json.dumps(refs, indent=1))
    with open(HERE / "reference.json", "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
