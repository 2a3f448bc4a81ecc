# %% PPO sanity check on a one-dimensional quadratic bandit
#
# Before trusting the trainer on aerodynamics, watch it solve
# reward = -(a - 0.3)^2 at a single state. The policy mean should walk to
# 0.3 and the sampling noise should shrink as the optimum localizes.

import numpy as np

from mflight.agent import forward_policy, gaussian_log_prob, init_params, value
from mflight.ppo import ExperienceBatch, PpoConfig, PpoTrainer

seed = 0
batch_size = 40
rng = np.random.default_rng([seed, 5])
params = init_params(rng, state_dim=1, action_dim=1, hidden=(64, 64))
trainer = PpoTrainer(params, PpoConfig())
states = np.zeros((batch_size, 1))

print(f"{'update':>6} {'mean':>8} {'std':>7} {'reward':>9} {'clipfrac':>9}")
for update in range(500):
    mean, std = forward_policy(trainer.params, states)
    actions = mean + std * rng.standard_normal((batch_size, 1))
    logp = gaussian_log_prob(actions, mean, trainer.params.log_std)
    a = np.clip(actions[:, 0], -1.0, 1.0)
    rewards = -(a - 0.3) ** 2
    values = value(trainer.params, states)
    stats = trainer.update(ExperienceBatch(
        states=states, actions=actions, log_probs_old=logp,
        advantages=rewards - values, returns=rewards))
    if update % 50 == 0 or update == 499:
        m, s = forward_policy(trainer.params, 0.0)
        print(f"{update:6d} {m[0]:8.4f} {s[0]:7.4f} {rewards.mean():9.5f} "
              f"{stats.clip_fraction:9.2f}")

m, s = forward_policy(trainer.params, 0.0)
print(f"\nfinal policy mean {m[0]:.4f} (target 0.3), std {s[0]:.4f}")
