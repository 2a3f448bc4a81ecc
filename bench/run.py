"""The mflight benchmark: three CLI workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each operation is one ``mflight train`` or
``mflight evaluate`` command in a fresh child process (bench/child.py) with
the BLAS thread pools at one thread. Operations repeat, with mflight seeds
drawn from --seed, until S seconds have passed; every one is checked by
bench/checks.py. The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Workloads, metrics and reference figures are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHECKPOINT = os.path.join(HERE, "eval.ckpt")

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "lowfi_transfer": "train",
    "multifi_transfer": "train",
    "hifi_evaluate": "evaluate",
}

# At its default size the OpenBLAS pool spins: a multi-fidelity campaign on a
# 2-core machine burns ~1.8 CPU-seconds per wall-second for no gain in wall
# time. The pool size also changes the last digits of high-fidelity rewards,
# so at one thread the logged numbers do not depend on the machine's core count.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120


def config_path(workload: str) -> str:
    return os.path.join(HERE, "configs", f"{workload}.json")


def run_command(workload: str, cfg: dict, seed: int, out_dir: str, trace: bool) -> dict:
    """One operation: a fresh child process running one mflight command."""
    os.makedirs(out_dir)
    if WORKLOADS[workload] == "train":
        args = ["train", "--config", config_path(workload), "--out", out_dir,
                "--seed", str(seed)]
    else:
        doc = dict(cfg, seed=seed)
        doc_path = os.path.join(out_dir, "config.json")
        with open(doc_path, "w") as fh:
            json.dump(doc, fh)
        args = ["evaluate", "--checkpoint", CHECKPOINT, "--config", doc_path,
                "--out", out_dir]
    report_path = os.path.join(out_dir, "report.json")
    env = {k: v for k, v in os.environ.items() if k != "MFLIGHT_THREADS"}
    env.update(CHILD_ENV)
    with open(os.path.join(out_dir, "child.log"), "w") as log:
        t_spawn = time.monotonic()
        try:
            # on a timeout, run() kills the child and waits for it before raising
            code = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), report_path,
                 "1" if trace else "0", "--", *args],
                env=env, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not os.path.exists(report_path):
        return {"failed": True, "exit_code": code}
    with open(report_path) as fh:
        rep = json.load(fh)
    rep.update(failed=False, setup_s=rep["t_first"] - t_spawn,
               run_s=rep["t_end"] - rep["t_first"], cpu_s=rep["cpu_end"] - rep["cpu_first"])
    return rep


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def outcome(workload: str, cfg: dict, out_dir: str) -> tuple[int, list[float], list[str]]:
    """Episodes run, the drag samples, and any check failures of one command."""
    if WORKLOADS[workload] == "train":
        rows = checks.read_episodes(read(os.path.join(out_dir, "episodes.csv")))
        summary = checks.read_keyed(read(os.path.join(out_dir, "summary.txt")))
        errors = checks.campaign_checks(rows, summary, cfg)
        target = [-r["reward"] for r in rows if r["phase"] == "target"]
        return len(rows), target[-cfg["evaluation"]["tail_episodes"]:], errors
    episodes = cfg["evaluation"]["episodes"]
    eval_summary = read(os.path.join(out_dir, "eval_summary.txt"))
    errors = checks.check_histogram(read(os.path.join(out_dir, "histogram.csv")),
                                    eval_summary, episodes, cfg["penalty"])
    return episodes, [-float(checks.read_keyed(eval_summary)["mean"])], errors


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer calls and self time, and the time outside any span, per traced command."""
    totals = {f"{name}.{kind}": 0.0 for name in spans.LAYER_NAMES for kind in ("calls", "self_s")}
    for tagged, _ in spans.TAGGED.values():
        totals[tagged] = 0.0
    totals["trace.unaccounted_s"] = 0.0
    for rep in reports:
        with np.load(rep["spans"]) as npz:
            data = dict(npz)
        own, uncovered = spans.self_times(data, rep["t_first"], rep["t_end"])
        totals["trace.unaccounted_s"] += uncovered
        calls = np.bincount(data["name"], minlength=len(spans.LAYER_NAMES))
        tags = np.bincount(data["name"], weights=data["tag"], minlength=len(spans.LAYER_NAMES))
        for i, name in enumerate(spans.LAYER_NAMES):
            totals[f"{name}.calls"] += int(calls[i])
            totals[f"{name}.self_s"] += own[i]
            if name in spans.TAGGED:
                totals[spans.TAGGED[name][0]] += float(tags[i])
    return {key: val / len(reports) for key, val in totals.items()}


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises here, and subprocess.run then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "mflight", "cli.py")):
        print(f"error: no mflight sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = args.workload
    with open(config_path(workload)) as fh:
        cfg = json.load(fh)
    out_root = os.path.join(OUT, workload)
    shutil.rmtree(out_root, ignore_errors=True)

    # mflight seeds come from --seed alone. A round is one command (with
    # --trace 1, an untraced and a traced command of the same seed); rounds
    # repeat while one more is expected to end less than half a round late.
    seeds = random.Random(args.seed)
    runs, traced, drag, round_s = [], [], [], []
    attempted = failed = 0
    correct = True
    t_start = time.monotonic()
    while not round_s or time.monotonic() - t_start + statistics.median(round_s) / 2 < args.seconds:
        t_round = time.monotonic()
        seed = seeds.randrange(2**31)
        for trace in ((False, True) if args.trace else (False,)):
            out_dir = os.path.join(out_root, f"{attempted:03d}_{seed}")
            attempted += 1
            rep = run_command(workload, cfg, seed, out_dir, trace)
            if rep["failed"]:
                failed += 1
                print(f"FAILED {out_dir}: exit code {rep['exit_code']}", file=sys.stderr)
                continue
            try:
                rep["episodes"], samples, errors = outcome(workload, cfg, out_dir)
            except (OSError, ValueError, KeyError) as exc:
                correct = False
                print(f"CHECK FAILED {out_dir}: unreadable artifacts: {exc!r}", file=sys.stderr)
                continue
            for error in errors:
                correct = False
                print(f"CHECK FAILED {out_dir}: {error}", file=sys.stderr)
            print(f"  seed {seed:>10} {'traced' if trace else 'timed '} setup {rep['setup_s']:.4f} s"
                  f"  run {rep['run_s']:.4f} s  cpu {rep['cpu_s']:.4f} s"
                  f"  {rep['episodes']} episodes")
            if trace:
                traced.append(rep)
            else:
                runs.append(rep)
                drag += samples
                if not errors:
                    shutil.rmtree(out_dir)
        round_s.append(time.monotonic() - t_round)

    if not runs or (args.trace and not traced):
        print("error: every command failed", file=sys.stderr)
        return 1

    def med(key):
        return statistics.median(r[key] for r in runs)

    end_to_end = {
        "setup_s": (med("setup_s"), "s"),
        "run_s": (med("run_s"), "s"),
        "episodes_per_s": (sum(r["episodes"] for r in runs) / sum(r["run_s"] for r in runs),
                           "1/s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "drag_cd": (statistics.median(drag), "cd"),
    }
    print(f"workload {workload}: {len(runs)} commands, seed {args.seed}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    if args.trace:
        layers = layer_metrics(traced)
        traced_run_s = statistics.mean(r["run_s"] for r in traced)
        untraced_run_s = statistics.mean(r["run_s"] for r in runs)
        layers["trace.run_s"] = traced_run_s
        layers["trace.overhead_s"] = traced_run_s - untraced_run_s
        print(f"traced commands: {len(traced)}; per command:")
        for name in spans.LAYER_NAMES:
            share = layers[f"{name}.self_s"] / traced_run_s
            print(f"  {name:<34} {layers[f'{name}.calls']:>10.1f} calls "
                  f"{layers[f'{name}.self_s']:>10.4f} s self ({share:6.1%} of run_s)")
        for tagged, _ in spans.TAGGED.values():
            print(f"  {tagged:<34} {layers[tagged]:>10.1f}")
        print(f"  traced run_s {traced_run_s:.4f} s, untraced {untraced_run_s:.4f} s, "
              f"overhead {layers['trace.overhead_s']:+.4f} s, "
              f"unaccounted {layers['trace.unaccounted_s']:.4f} s")
        with open(os.path.join(out_root, "trace.json"), "w") as fh:
            json.dump(layers, fh, indent=1)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
