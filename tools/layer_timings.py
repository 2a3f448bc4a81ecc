"""Print best-of-7 per-call times of the geometry build, a priced round and a PPO update.

    python3 tools/layer_timings.py

Times, with fixed seeds and one BLAS thread:

- ``geometry.build_airfoil`` on stacks of 1 and 20 designs at 62 and 202
  points. The designs are drawn uniformly from [-1, 1] and decoded in the
  design box of bench/configs/lowfi_transfer.json;
- ``Environment.step_round`` on one fixed round of 20 designs at each
  fidelity (62 and 202 points), in the same box and drawn the same way, at
  Reynolds numbers drawn uniformly from [5e6, 9e6];
- one PPO update of 10 epochs on a batch of 20 episodes. It starts from the
  policy in bench/eval.ckpt (13 actions, hidden (64, 64)) and has no KL stop.

Each line is the best of 7 repetitions; a repetition averages
enough calls to last about 0.05 s, short enough that on a shared host
some repetitions miss the other load. The times are for comparing two
checkouts on one host: run the script in each and read the lines side by side.
It is not a test and not a gate. It uses only the standard library and the
mflight package of the checkout it lives in.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import random
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mflight import config  # noqa: E402
from mflight.aeroenv import make_environment  # noqa: E402
from mflight.agent import forward_policy, gaussian_log_prob, load_checkpoint, value  # noqa: E402
from mflight.geometry import build_airfoil, decode  # noqa: E402
from mflight.ppo import EpisodeRecord, ExperienceBatch, PpoConfig, PpoTrainer  # noqa: E402

CONFIG = os.path.join(ROOT, "bench", "configs", "lowfi_transfer.json")
CHECKPOINT = os.path.join(ROOT, "bench", "eval.ckpt")
REPS = 7


def best_of(setup, run) -> float:
    """Best mean seconds per call over REPS repetitions; ``setup(n)`` makes n call inputs."""
    n = 1
    while True:  # calls per repetition: enough for about 0.05 s
        inputs = setup(n)
        t0 = time.perf_counter()
        for arg in inputs:
            run(arg)
        elapsed = time.perf_counter() - t0
        if elapsed > 0.05 or n >= 1 << 16:
            break
        n = max(2 * n, math.ceil(n * 0.06 / max(elapsed, 1e-6)))
    times = []
    for _ in range(REPS):
        inputs = setup(n)
        t0 = time.perf_counter()
        for arg in inputs:
            run(arg)
        times.append((time.perf_counter() - t0) / n)
    return min(times)


def design_box():
    return config.build_run_config(config.load_document(CONFIG)).bounds


def build_timings():
    bounds = design_box()
    rnd = random.Random(2024)
    for n_points in (62, 202):
        for stack in (1, 20):
            designs = [[rnd.uniform(-1.0, 1.0) for _ in range(13)] for _ in range(stack)]
            polygon = decode(designs, bounds)
            seconds = best_of(lambda n: [polygon] * n,
                              lambda p: build_airfoil(p, n_points))
            yield f"build_airfoil B={stack:<2d} n_points={n_points:<3d}", seconds


def step_round_timings():
    bounds = design_box()
    rnd = random.Random(2024)
    designs = [[rnd.uniform(-1.0, 1.0) for _ in range(13)] for _ in range(20)]
    re_cs = [rnd.uniform(5e6, 9e6) for _ in range(20)]
    for fidelity in ("low", "high"):
        env = make_environment(fidelity, bounds=bounds)
        seconds = best_of(lambda n: [designs] * n, lambda d: env.step_round(d, re_cs))
        yield f"step_round B=20 fidelity={fidelity:<4s} n_points={env.n_points:<3d}", seconds


def ppo_batch(params, size: int, seed: int) -> ExperienceBatch:
    """Episodes sampled from the policy at standard-normal states, rewards in [-0.1, 0]."""
    rnd = random.Random(seed)
    records = []
    for _ in range(size):
        state = rnd.gauss(0.0, 1.0)
        mean, std = forward_policy(params, state)
        action = [m + s * rnd.gauss(0.0, 1.0) for m, s in zip(mean.tolist(), std.tolist())]
        records.append(EpisodeRecord(
            state=state, action=action,
            log_prob_old=float(gaussian_log_prob(action, mean, params.log_std)[0]),
            reward=rnd.uniform(-0.1, 0.0), value_old=value(params, state)))
    return ExperienceBatch.from_records(records)


def ppo_timing():
    params, _ = load_checkpoint(CHECKPOINT)
    batch = ppo_batch(params, 20, 2024)
    cfg = PpoConfig(learning_rate=1e-3, kl_stop=math.inf)
    epochs = PpoTrainer(params.copy(), cfg).update(batch).epochs_run
    if epochs != cfg.epochs_per_update:
        raise SystemExit(f"the update ran {epochs} epochs, not {cfg.epochs_per_update}")
    seconds = best_of(lambda n: [PpoTrainer(params.copy(), cfg) for _ in range(n)],
                      lambda trainer: trainer.update(batch))
    sizes = "x".join(str(w) for w in params.policy.sizes)
    yield f"ppo_update epochs={epochs} batch={len(batch)} policy={sizes}", seconds


def main() -> int:
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={importlib.metadata.version('numpy')} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} best of {REPS}")
    for label, seconds in (*build_timings(), *step_round_timings(), *ppo_timing()):
        print(f"{label:<48s} {seconds * 1e3:8.3f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
