"""README's library quickstart runs as written against the package in src/,
so a public name it imports cannot disappear unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 2
