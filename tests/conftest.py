"""Shared test helpers: finite differences, a short real run, shapes, campaign configs."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mflight import agent, cli, ppo
from mflight.aeroenv import StateDistribution
from mflight.geometry import ControlPolygon, GeometryBounds, build_airfoil
from mflight.orchestrator import PhaseSpec, RunConfig
from mflight.ppo import PpoConfig

# Tier-1 runs the "ci" profile: every checkout draws the same examples and no run replays
# another's failures. HYPOTHESIS_PROFILE=explore draws fresh examples and keeps .hypothesis/.
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


# --- finite-difference machinery -------------------------------------------

def fd_gradient(loss_fn, params, h=1e-6):
    """Central finite differences of loss_fn(params) over every entry of params.flat."""
    x0 = params.flat.copy()
    g = np.empty_like(x0)
    for i in range(len(x0)):
        params.flat[i] += h
        fp = loss_fn(params)
        params.flat[i] -= 2 * h
        fm = loss_fn(params)
        params.flat[i] = x0[i]
        g[i] = (fp - fm) / (2 * h)
    return g


def max_rel_error(a, b, floor=1e-8):
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())


def random_small_params(rng, action_dim=3, hidden=(8, 7)):
    """A perturbed small network suitable for finite-difference checks."""
    p = agent.init_params(rng, state_dim=1, action_dim=action_dim, hidden=hidden,
                          log_std_init=-0.3)
    p.flat += 0.3 * rng.standard_normal(p.flat.size)
    np.clip(p.log_std, -2.0, 1.0, out=p.log_std)
    return p


def random_batch(rng, params, size=6):
    states = rng.standard_normal((size, 1))
    mean = params.policy.forward(states)
    actions = mean + 1.5 * np.exp(params.log_std) * rng.standard_normal((size, params.action_dim))
    logp_old = agent.gaussian_log_prob(actions, mean, params.log_std) \
        + 0.1 * rng.standard_normal(size)
    rewards = rng.standard_normal(size)
    values = rewards + 0.3 * rng.standard_normal(size)
    adv = rewards - values
    adv = (adv - adv.mean()) / adv.std()
    return ppo.ExperienceBatch(states=states, actions=actions, log_probs_old=logp_old,
                               advantages=adv, returns=rewards)


# --- a short real run ---------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def short_run(tmp_path_factory):
    """A short single-fidelity CTL campaign of the committed lowfi_transfer config.

    Returns the directory that holds its ``config.json`` and, under ``run/``,
    every file ``mflight train`` wrote: 40 source and 20 target episodes, and
    checkpoints whose extras hold the controller state.
    """
    root = tmp_path_factory.mktemp("short_run")
    doc = json.loads((BENCH / "configs" / "lowfi_transfer.json").read_text())
    doc["source"]["max_episodes"] = 40
    doc["target"]["max_episodes"] = 20
    doc["ctl"]["force_transfer"] = True
    doc["evaluation"]["episodes"] = 5
    config = root / "config.json"
    config.write_text(json.dumps(doc, indent=2))
    assert cli.main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    return root


# --- reference geometry ------------------------------------------------------

def symmetric_polygon(y1, y2, y3, r=0.01, x=(0.1, 0.45, 0.8)):
    upper = np.array([[x[0], y1], [x[1], y2], [x[2], y3]])
    return ControlPolygon(upper=upper, lower=upper * np.array([1.0, -1.0]),
                          leading_edge_radius=r)


@pytest.fixture(scope="session")
def thick_shape_200():
    """~12% thick symmetric section sampled at 200 panels."""
    return build_airfoil(symmetric_polygon(0.075, 0.085, 0.035, r=0.012), 202)[0]


@pytest.fixture(scope="session")
def thick_shape_60():
    return build_airfoil(symmetric_polygon(0.075, 0.085, 0.035, r=0.012), 62)[0]


# --- campaign experiment configuration --------------------------------------

def experiment_bounds() -> GeometryBounds:
    """Design box used by the scaled experiments.

    The x positions and nose radius are kept narrow: the low-fidelity reward
    only sees thickness, so dimensions it cannot train must have bounded
    effect on the high-fidelity outcome for transfer to stay safe.
    """
    lo = np.array([0.15, 0.02, 0.40, 0.02, 0.70, 0.01,
                   0.15, -0.10, 0.40, -0.10, 0.70, -0.05, 0.002])
    hi = np.array([0.30, 0.10, 0.60, 0.10, 0.85, 0.05,
                   0.30, -0.02, 0.60, -0.02, 0.85, -0.01, 0.005])
    return GeometryBounds(lo=lo, hi=hi)


def experiment_config(mode, seed, target_fidelity="low", mu_target=8e6,
                      source_budget=2600, target_budget=2000) -> RunConfig:
    """Tuned desk-scale campaign: shared by the CTL/scratch comparisons."""
    source = None
    if mode != "scratch":
        source = PhaseSpec(name="source", fidelity="low",
                           dist=StateDistribution(5.5e6, 5e5),
                           max_episodes=source_budget)
    return RunConfig(
        mode=mode,
        source=source,
        target=PhaseSpec(name="target", fidelity=target_fidelity,
                         dist=StateDistribution(mu_target, 5e5),
                         max_episodes=target_budget),
        ppo=PpoConfig(learning_rate=1e-3, kl_stop=0.15),
        log_std_init=-1.0,
        bounds=experiment_bounds(),
        seed=seed,
        state_ref=(5.5e6, 5e5),
        force_transfer=True,
        ctl_window=200,
    )


PAIRED_SEEDS = (201, 202, 203, 204, 205)
