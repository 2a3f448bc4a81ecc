"""Make bench/eval.ckpt anew: the final policy of one seeded multi-fidelity campaign.

    python3 bench/make_checkpoint.py

Run from the root of a checkout. Only needed when the checkpoint format
changes; measure drag_cd on hifi_evaluate again afterwards (bench/README.md).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

from run import CHECKPOINT, CHILD_ENV, ROOT, config_path

SEED = 201


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **CHILD_ENV)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(CHECKPOINT)) as out:
        subprocess.run([sys.executable, "-m", "mflight.cli", "train",
                        "--config", config_path("multifi_transfer"), "--out", out,
                        "--seed", str(SEED)], env=env, check=True)
        shutil.copyfile(os.path.join(out, "checkpoint_target_final.ckpt"), CHECKPOINT)
    print(f"wrote {CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
