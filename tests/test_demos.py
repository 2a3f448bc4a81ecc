"""Every script under demos/ runs to completion against the current package.

Each demo runs in a fresh interpreter inside a temporary directory, so the
files it writes land there and none is left in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def checkout_files() -> set[Path]:
    return {path for path in ROOT.rglob("*") if ".git" not in path.relative_to(ROOT).parts}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_and_leaves_no_file(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = checkout_files()
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert checkout_files() - before == set()
