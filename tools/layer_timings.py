"""Print best-of-7 per-call times of the layers, a priced round, the agent, a PPO update,
a controller update and the import.

    python3 tools/layer_timings.py

Times, with fixed seeds and one BLAS thread:

- ``geometry.build_airfoil`` on stacks of 1 and 20 designs at 62 and 202
  points. The designs are drawn uniformly from [-1, 1] and decoded in the
  design box of bench/configs/lowfi_transfer.json;
- ``panel.solve_panel`` at 60 and 200 panels in a reused workspace, on the
  first valid shape of those draws at 62 and 202 points;
- ``boundary_layer.march_surface`` on the upper surface of that 200-panel
  solve at Re 5.5e6;
- ``Environment.step_round`` on one fixed round of 20 designs at each
  fidelity (62 and 202 points), in the same box and drawn the same way, at
  Reynolds numbers drawn uniformly from [5e6, 9e6];
- ``agent.act`` on one fixed round of 20 standard-normal states, each with
  its own episode generator, and the round's value pass on the same 20 states
  (``Mlp.forward_rows`` of the value net, as ``collect_round`` runs it), with
  the policy in bench/eval.ckpt (13 actions, hidden (64, 64));
- one PPO update of 10 epochs on a batch of 20 episodes. It starts from the
  same policy and has no KL stop;
- ``TransferController.update`` at window k = 200, on a controller that has
  already seen 400 rewards drawn uniformly from [-0.1, 0];
- ``import mflight.cli`` in a fresh interpreter started with ``subprocess``:
  the import's wall time and the child's peak resident memory (``VmHWM``
  on Linux, else ``ru_maxrss``).

Each line is the best of 7 repetitions; a repetition averages enough
calls to last about 0.05 s, short enough that on a shared host some
repetitions miss the other load. The import runs once per child, seven
children. The times are for comparing two checkouts on one host: run the
script in each and read the lines side by side.
It is not a test and not a gate. It uses only the standard library, numpy and
the mflight package of the checkout it lives in.
"""

from __future__ import annotations

import copy
import importlib.metadata
import math
import os
import platform
import random
import subprocess
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from mflight import boundary_layer, config  # noqa: E402
from mflight.aeroenv import Environment  # noqa: E402
from mflight.agent import act, forward_policy, gaussian_log_prob, load_checkpoint, value  # noqa: E402
from mflight.ctl import TransferController  # noqa: E402
from mflight.geometry import build_airfoil, decode  # noqa: E402
from mflight.orchestrator import episode_rng  # noqa: E402
from mflight.panel import PanelWorkspace, solve_panel  # noqa: E402
from mflight.ppo import EPOCHS, ExperienceBatch, PpoConfig, PpoTrainer  # noqa: E402

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


def first_valid_shape(n_points: int):
    bounds = design_box()
    rnd = random.Random(2024)
    while True:
        (shape,) = build_airfoil(decode([rnd.uniform(-1.0, 1.0) for _ in range(13)], bounds),
                                 n_points)
        if shape.valid:
            return shape


def panel_and_march_timings():
    for n_points in (62, 202):
        points = first_valid_shape(n_points).points
        work = PanelWorkspace(n_points - 2)
        seconds = best_of(lambda n: [points] * n, lambda p: solve_panel(p, work=work))
        yield f"solve_panel n_panels={n_points - 2:<3d} workspace", seconds
    sol = solve_panel(points, work=work)
    _, (s, ue, x) = boundary_layer.split_surfaces(sol.x_mid, sol.y_mid, sol.vt)
    seconds = best_of(lambda n: [ue] * n,
                      lambda u: boundary_layer.march_surface(s, u, x, 1.0 / 5.5e6))
    yield f"march_surface upper stations={len(s):<3d} Re=5.5e6", seconds


# the import's wall time and the peak resident memory, in a fresh interpreter. On
# Linux, ru_maxrss also counts the peak of the process that started the child
# (exec records the old address space's peak), so VmHWM is read where it exists.
IMPORT_CLI = """
import resource, time
t0 = time.perf_counter()
import mflight.cli
wall = time.perf_counter() - t0
try:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(wall, kb)
"""


def import_timing():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = [subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, check=True,
                           capture_output=True, text=True).stdout.split() for _ in range(REPS)]
    seconds = min(float(wall) for wall, _ in runs)
    rss_mb = min(int(kb) for _, kb in runs) / 1024.0
    yield f"import mflight.cli (fresh interpreter, rss {rss_mb:.1f} MB)", seconds


def step_round_timings():
    bounds = design_box()
    rnd = random.Random(2024)
    designs = [[rnd.uniform(-1.0, 1.0) for _ in range(13)] for _ in range(20)]
    re_cs = [rnd.uniform(5e6, 9e6) for _ in range(20)]
    for fidelity in ("low", "high"):
        env = Environment(fidelity, bounds=bounds)
        seconds = best_of(lambda n: [designs] * n, lambda d: env.step_round(d, re_cs))
        yield f"step_round B=20 fidelity={fidelity:<4s} n_points={env.n_points:<3d}", seconds


def agent_timings():
    params, _ = load_checkpoint(CHECKPOINT)
    rnd = random.Random(2024)
    states = [rnd.gauss(0.0, 1.0) for _ in range(20)]
    rngs = [episode_rng(2024, "source", j) for j in range(20)]
    seconds = best_of(lambda n: [states] * n, lambda s: act(params, s, rngs))
    yield f"act B={len(states)} (one round)", seconds
    column = np.array(states).reshape(-1, 1)
    seconds = best_of(lambda n: [column] * n, params.value.forward_rows)
    yield f"value B={len(states)} (one round)", seconds


def ppo_batch(params, size: int, seed: int) -> ExperienceBatch:
    """Episodes sampled from the policy at standard-normal states, rewards in [-0.1, 0]."""
    rnd = random.Random(seed)
    states, actions, log_probs, rewards, values = [], [], [], [], []
    for _ in range(size):
        state = rnd.gauss(0.0, 1.0)
        mean, std = forward_policy(params, state)
        action = [m + s * rnd.gauss(0.0, 1.0) for m, s in zip(mean.tolist(), std.tolist())]
        states.append([state])
        actions.append(action)
        log_probs.append(float(gaussian_log_prob(action, mean, params.log_std)[0]))
        rewards.append(rnd.uniform(-0.1, 0.0))
        values.append(value(params, state))
    returns = np.array(rewards)
    return ExperienceBatch(states=np.array(states), actions=np.array(actions),
                           log_probs_old=np.array(log_probs),
                           advantages=returns - np.array(values), returns=returns)


def ppo_timing():
    params, _ = load_checkpoint(CHECKPOINT)
    batch = ppo_batch(params, 20, 2024)
    cfg = PpoConfig(learning_rate=1e-3, kl_stop=math.inf)
    epochs = PpoTrainer(params.copy(), cfg).update(batch).epochs_run
    if epochs != EPOCHS:
        raise SystemExit(f"the update ran {epochs} epochs, not {EPOCHS}")
    seconds = best_of(lambda n: [PpoTrainer(params.copy(), cfg) for _ in range(n)],
                      lambda trainer: trainer.update(batch))
    sizes = "x".join(str(w) for w in params.policy.sizes)
    yield f"ppo_update epochs={epochs} batch={len(batch)} policy={sizes}", seconds


def controller_timing():
    rnd = random.Random(2024)
    primed = TransferController(k=200)
    for _ in range(400):
        primed.update(rnd.uniform(-0.1, 0.0))

    def setup(n):
        # a fresh copy per repetition, so the histories do not pile up
        ctrl = copy.deepcopy(primed)
        return [(ctrl, rnd.uniform(-0.1, 0.0)) for _ in range(n)]

    seconds = best_of(setup, lambda call: call[0].update(call[1]))
    yield f"TransferController.update k={primed.k}", seconds


def main() -> int:
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={importlib.metadata.version('numpy')} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} best of {REPS}")
    for label, seconds in (*build_timings(), *panel_and_march_timings(), *step_round_timings(),
                           *agent_timings(), *ppo_timing(), *controller_timing(),
                           *import_timing()):
        print(f"{label:<48s} {seconds * 1e3:8.3f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
