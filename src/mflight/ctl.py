"""Controlled transfer learning: the reward variance-ratio completion test.

After every episode the controller computes the population variance of the
trailing reward window and divides it by the running maximum of the window
variances so far, taken over full windows only once the first full window
exists. The ratio starts at 1, decays as learning settles, and once
it drops to the cut-off (with at least a full window of history) the source
task is declared complete and the policy parameters may be transferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import PolicyParams
from .errors import InvalidReward

VARIANCE_FLOOR = 1e-12


def window_statistic(rewards) -> float:
    """Population variance of a reward window; a single element gives 0."""
    arr = np.asarray(rewards, dtype=float)
    if arr.size == 0:
        raise InvalidReward("window_statistic needs at least one reward")
    return float(arr.var())


@dataclass
class TransferController:
    """Tracks the variance ratio over training and latches completion."""

    k: int = 50
    gamma_cut: float = 0.3
    reward_history: list = field(default_factory=list, init=False)
    xi_history: list = field(default_factory=list, init=False)
    beta_history: list = field(default_factory=list, init=False)
    complete: bool = field(default=False, init=False)
    complete_episode: int | None = field(default=None, init=False)
    xi_max: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("look-back window k must be >= 1")
        if not 0.0 < self.gamma_cut < 1.0:
            raise ValueError("gamma_cut must lie in (0, 1)")

    def update(self, reward: float) -> float:
        """Record one episode reward and return the new variance ratio.

        Updates after completion are recorded but never clear the flag.
        """
        if not np.isfinite(reward):
            raise InvalidReward(f"non-finite reward {reward!r}")
        self.reward_history.append(float(reward))
        e = len(self.reward_history)
        xi = window_statistic(self.reward_history[-min(e, self.k):])
        self.xi_history.append(xi)
        # the max restarts at the first full window: variances of the short
        # warm-up windows scatter far above the true level and would otherwise
        # make the ratio dip spuriously on stationary noise
        if e == 1 or e == self.k or xi > self.xi_max:
            self.xi_max = xi
        if e == 1:
            beta = 1.0
        else:
            beta = 0.0 if self.xi_max <= VARIANCE_FLOOR else xi / self.xi_max
        self.beta_history.append(beta)
        if not self.complete and beta <= self.gamma_cut and e >= self.k:
            self.complete = True
            self.complete_episode = e
        return beta

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Controller state as named arrays for checkpoint embedding."""
        return {
            "ctl.k": np.array(float(self.k)),
            "ctl.gamma_cut": np.array(self.gamma_cut),
            "ctl.complete": np.array(1.0 if self.complete else 0.0),
            "ctl.complete_episode": np.array(float(self.complete_episode or -1)),
            "ctl.rewards": np.asarray(self.reward_history, dtype=float),
        }


def transfer(source_params: PolicyParams) -> PolicyParams:
    """Deep-copy the source policy and value parameters for the target task.

    Optimizer moments are deliberately not carried over; the target trainer
    starts its adaptive state from zero.
    """
    return source_params.copy()
