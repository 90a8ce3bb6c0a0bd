"""Each demo, run as a script in a fresh interpreter with every warning an
error, exits 0 with nothing on stderr and prints its committed golden copy
in tests/golden/, demo 02's time column masked. Refresh a golden copy only
for a change that means to alter what a demo prints:

    PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.out
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/*.py"))


def mask_times(text: str) -> str:
    """Demo 02's per-order wall times, `{dt:>7.2f}s`, as a fixed mask."""
    return re.sub(r" *\d+\.\d\ds  ", "  <time>s  ", text)


def test_every_demo_has_a_golden_copy():
    assert DEMOS and sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_copy(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("ALPHASPECTRAL_CACHE_DIR", None)  # no class file of the caller's is read or written
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    golden = (ROOT / "tests" / "golden" / f"{demo.stem}.out").read_text()
    assert mask_times(proc.stdout) == mask_times(golden)
