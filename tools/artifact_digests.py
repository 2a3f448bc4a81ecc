"""Print the sha256 of every deterministic artifact of fixed mflight commands.

    python3 tools/artifact_digests.py [--seed 12345]

Runs, from the checkout this script lives in and in a temporary directory:
``mflight train`` on the two campaign configs in bench/configs/
(lowfi_transfer.json, multifi_transfer.json) with ``--seed``,
``mflight evaluate`` of bench/eval.ckpt with bench/configs/hifi_evaluate.json
at the same seed, ``mflight compare`` of the two campaign runs
(compare.csv) and ``python -m mflight.config`` (config_reference.txt).
Prints one ``sha256  path`` line per file, sorted by path.
A change that keeps every logged number the same prints the same lines on
both checkouts:

    python3 tools/artifact_digests.py > before.txt   # in the parent checkout
    python3 tools/artifact_digests.py > after.txt    # in the changed checkout
    diff before.txt after.txt

Uses only the standard library and the mflight command line; it writes
nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "bench", "configs")
CHECKPOINT = os.path.join(ROOT, "bench", "eval.ckpt")


def mflight(args: list[str], module: str = "mflight.cli", stdout=sys.stderr) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # by default the child writes to stderr, so standard output holds the digests alone
    code = subprocess.run([sys.executable, "-m", module, *args], env=env,
                          stdout=stdout).returncode
    if code != 0:
        raise SystemExit(f"{module} {' '.join(args)} exited with {code}")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12345, help="mflight seed of all three commands")
    seed = parser.parse_args(argv).seed

    with tempfile.TemporaryDirectory() as tmp:
        runs = os.path.join(tmp, "runs")
        for name in ("lowfi_transfer", "multifi_transfer"):
            mflight(["train", "--config", os.path.join(CONFIGS, f"{name}.json"),
                     "--out", os.path.join(runs, name), "--seed", str(seed)])
        # evaluate reads its seed from the config document
        with open(os.path.join(CONFIGS, "hifi_evaluate.json")) as fh:
            doc = dict(json.load(fh), seed=seed)
        eval_config = os.path.join(tmp, "hifi_evaluate.json")
        with open(eval_config, "w") as fh:
            json.dump(doc, fh)
        mflight(["evaluate", "--checkpoint", CHECKPOINT, "--config", eval_config,
                 "--out", os.path.join(runs, "eval")])
        mflight(["compare", os.path.join(runs, "lowfi_transfer"),
                 os.path.join(runs, "multifi_transfer"),
                 "--out", os.path.join(runs, "compare.csv")])
        with open(os.path.join(runs, "config_reference.txt"), "w") as fh:
            mflight([], module="mflight.config", stdout=fh)

        paths = sorted(os.path.relpath(os.path.join(d, f), runs).replace(os.sep, "/")
                       for d, _, files in os.walk(runs) for f in files)
        for rel in paths:
            print(f"{sha256(os.path.join(runs, rel))}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
