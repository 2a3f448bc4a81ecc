# %% A complete controlled-transfer campaign, library-level
#
# Source task: learn drag-minimizing designs on the cheap environment with
# Re ~ N(5.5e6, 5e5). The variance-ratio gate decides when to stop; the policy
# parameters then seed a target task at a shifted distribution (mu = 8e6).
# A scratch baseline on the same target budget shows what transfer buys.
#
# Takes a couple of minutes at these budgets.

import numpy as np

from mflight.aeroenv import StateDistribution
from mflight.geometry import GeometryBounds
from mflight.orchestrator import (
    THRESHOLD_FRACTION,
    PhaseSpec,
    RunConfig,
    episodes_to_threshold,
    run_campaign,
    threshold_value,
    trailing_mean,
)
from mflight.ppo import PpoConfig

# narrow x/radius ranges: the cheap model is blind to them, so keeping their
# reach small keeps the transferred policy safe on any target
bounds = GeometryBounds(
    lo=np.array([0.15, 0.02, 0.40, 0.02, 0.70, 0.01,
                 0.15, -0.10, 0.40, -0.10, 0.70, -0.05, 0.002]),
    hi=np.array([0.30, 0.10, 0.60, 0.10, 0.85, 0.05,
                 0.30, -0.02, 0.60, -0.02, 0.85, -0.01, 0.005]),
)


def config(mode, seed=11):
    source = None
    if mode != "scratch":
        source = PhaseSpec(name="source", fidelity="low",
                           dist=StateDistribution(5.5e6, 5e5), max_episodes=2600)
    return RunConfig(
        mode=mode, source=source,
        target=PhaseSpec(name="target", fidelity="low",
                         dist=StateDistribution(8e6, 5e5), max_episodes=2000),
        ppo=PpoConfig(learning_rate=1e-3, kl_stop=0.15),
        log_std_init=-1.0, bounds=bounds, seed=seed,
        state_ref=(5.5e6, 5e5), force_transfer=True, ctl_window=200,
    )


print("running scratch baseline on the target task...")
scratch = run_campaign(config("scratch"))
print("running controlled-transfer campaign...")
ctl = run_campaign(config("single_fidelity_ctl"))

print(f"\nsource phase: {ctl.source.episodes} episodes, transfer gate fired at "
      f"episode {ctl.source.complete_episode}")

final = float(trailing_mean(scratch.target.rewards, 50)[-1])
thr = threshold_value(final, THRESHOLD_FRACTION)
e_scr = episodes_to_threshold(scratch.target.rewards, thr, 50)
e_ctl = episodes_to_threshold(ctl.target.rewards, thr, 50)
print(f"threshold (95% of scratch's converged level): {thr:.5f}")
print(f"episodes to threshold:  scratch {e_scr},  with transfer {e_ctl}")
print(f"target-episode savings: {100 * (1 - e_ctl / e_scr):.0f}%")
print(f"last-500 reward variance: scratch {scratch.tail_var:.2e}, "
      f"with transfer {ctl.tail_var:.2e}")
