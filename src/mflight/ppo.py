"""PPO update step: clipped surrogate, value loss, Adam ascent.

The loss is
    -mean_t[ min(r_t A_t, clip(r_t, 1-eps, 1+eps) A_t) ]
    + VALUE_COEFF * mean[(V(s) - G)^2]
with r_t = exp(logpi_new - logpi_old), eps = CLIP_EPSILON and no entropy
bonus. The update is fixed: EPOCHS full-batch steps, each gradient clipped to
norm MAX_GRAD_NORM; only the Adam step size and the KL stop are settings.
Gradients are assembled by hand from the agent's MLP backward passes; at the
min/clip kinks the unclipped branch wins ties. One pooled batch is one
minibatch (the batches here are tiny).
The gradient and Adam's moments are vectors laid out like ``PolicyParams.flat``:
a step, a finite check, a backup and a rollback are whole-vector operations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .agent import LOG_STD_MAX, LOG_STD_MIN, PolicyParams, gaussian_log_prob
from .errors import EmptyBatch

log = logging.getLogger(__name__)

RATIO_CAP = 1e6
CLIP_EPSILON = 0.2
EPOCHS = 10
VALUE_COEFF = 0.5
MAX_GRAD_NORM = 0.5


@dataclass
class PpoConfig:
    learning_rate: float = 3e-4
    kl_stop: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        # infinity means no KL stop
        if not self.kl_stop > 0.0:
            raise ValueError("kl_stop must be > 0")


@dataclass
class ExperienceBatch:
    """One round of one-step episodes, row j being episode j of the round."""

    states: np.ndarray      # (B, 1)
    actions: np.ndarray     # (B, D) pre-clip samples
    log_probs_old: np.ndarray
    advantages: np.ndarray  # raw r - V, normalized at loss time
    returns: np.ndarray     # one-step episodes: the return is the reward

    def __len__(self) -> int:
        return self.states.shape[0]


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance advantages; an all-equal batch maps to zeros."""
    std = advantages.std()
    if std < 1e-12:
        return np.zeros_like(advantages)
    return (advantages - advantages.mean()) / std


def prob_ratio(log_prob_new, log_prob_old):
    """exp(logpi_new - logpi_old), capped to avoid overflow."""
    ratio = np.exp(np.asarray(log_prob_new) - np.asarray(log_prob_old))
    if np.any(ratio > RATIO_CAP):
        log.warning("probability ratio capped at %g", RATIO_CAP)
        ratio = np.minimum(ratio, RATIO_CAP)
    return ratio


@dataclass
class UpdateStats:
    mean_ratio: float
    clip_fraction: float
    policy_loss: float
    value_loss: float
    kl: float
    epochs_run: int = 0
    aborted: bool = False


def policy_pass(batch: ExperienceBatch, params: PolicyParams):
    """The policy's forward pass over a batch: (layer cache, means, log-probabilities)."""
    cache: list = []
    mean = params.policy.forward(batch.states, cache=cache)
    return cache, mean, gaussian_log_prob(batch.actions, mean, params.log_std)


def clipped_surrogate(batch: ExperienceBatch, params: PolicyParams,
                      grad: PolicyParams | None = None, forward=None):
    """Total loss, exact parameter gradients, and diagnostics for one batch.

    Advantages are consumed as stored; the update loop normalizes them once
    per batch before the epochs run. The gradient is written into ``grad``
    (``params.views`` of a vector), or into a fresh vector when it is None.
    ``forward`` is this batch's :func:`policy_pass` at the current parameters,
    if the caller already ran it. Means are ``sum / b``, the bits of ``mean()``.
    """
    if len(batch) == 0:
        raise EmptyBatch("empty experience batch")
    b = len(batch)
    adv = batch.advantages

    pol_cache, mean, logp_new = policy_pass(batch, params) if forward is None else forward
    std = np.exp(params.log_std)

    ratio = prob_ratio(logp_new, batch.log_probs_old)
    surr_raw = ratio * adv
    surr_clip = np.minimum(np.maximum(ratio, 1.0 - CLIP_EPSILON), 1.0 + CLIP_EPSILON) * adv
    policy_loss = -(np.minimum(surr_raw, surr_clip).sum() / b)

    val_cache: list = []
    v = params.value.forward(batch.states, cache=val_cache)[:, 0]
    err = v - batch.returns
    value_loss = (err ** 2).sum() / b

    loss = policy_loss + VALUE_COEFF * value_loss

    # --- gradients ---
    # unclipped branch wins ties, and only it carries gradient
    active = surr_raw <= surr_clip
    dlogp = np.where(active, -ratio * adv / b, 0.0)           # d loss / d logp_new
    z = (batch.actions - mean) / std
    dmean = dlogp[:, None] * z / std                          # d logp/d mean = z/std

    if grad is None:
        grad = params.views(np.empty_like(params.flat))
    params.policy.backward(pol_cache, dmean, grad.policy)
    # d logp/d log_std = z^2 - 1
    (dlogp[:, None] * (z * z - 1.0)).sum(axis=0, out=grad.log_std)
    params.value.backward(val_cache, ((2.0 * VALUE_COEFF / b) * err)[:, None], grad.value)

    stats = UpdateStats(
        mean_ratio=float(ratio.sum() / b),
        clip_fraction=float((np.abs(ratio - 1.0) > CLIP_EPSILON).sum() / b),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        kl=float((batch.log_probs_old - logp_new).sum() / b),
    )
    return float(loss), grad.flat, stats


def clip_grad_norm(grad: np.ndarray, params: PolicyParams,
                   square: np.ndarray | None = None) -> float:
    """Scale ``grad`` (laid out like ``params.flat``) to norm at most ``MAX_GRAD_NORM``.

    ``grad * grad`` goes into ``square`` (a fresh vector when None) and is summed
    array by array in layout order: one sum over the whole vector would round
    differently.
    """
    square = np.multiply(grad, grad, out=square)
    total = math.sqrt(sum(float(square[start:end].sum()) for _, start, end, _ in params.spans))
    if total > MAX_GRAD_NORM:
        grad *= MAX_GRAD_NORM / total
    return total


class Adam:
    """Adaptive-moment ascent on the negated loss (i.e. descent on loss).

    A step runs in place on two scratch vectors the optimizer owns.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: PolicyParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._work = (np.empty_like(params.flat), np.empty_like(params.flat))

    def step(self, params: PolicyParams, grad: np.ndarray) -> None:
        """m, v and the step of ``lr * (m/b1c) / (sqrt(v/b2c) + eps)``, operation by operation."""
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        step, denom = self._work
        self.m *= self.BETA1
        self.m += np.multiply(grad, 1.0 - self.BETA1, out=step)
        self.v *= self.BETA2
        np.multiply(grad, 1.0 - self.BETA2, out=step)
        step *= grad
        self.v += step
        np.divide(self.m, b1c, out=step)
        step *= self.lr
        np.divide(self.v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        step /= denom
        params.flat -= step


class PpoTrainer:
    """Owns the mutable parameters, the optimizer state and the gradient buffers.

    :meth:`update` changes ``params`` in place, so a caller that needs the
    parameters as they were keeps a ``params.copy()``.
    """

    def __init__(self, params: PolicyParams, cfg: PpoConfig):
        self.params = params
        self.cfg = cfg
        self.opt = Adam(params, cfg.learning_rate)
        self._grad = params.views(np.empty_like(params.flat))
        self._grad_square = np.empty_like(params.flat)

    def update(self, batch: ExperienceBatch) -> UpdateStats:
        """Run up to EPOCHS full-batch gradient steps; roll back on bad gradients.

        An epoch's KL check runs the policy pass that the next epoch's loss
        needs, at the same parameters, so the loss takes it over.
        """
        params = self.params
        batch = replace(batch, advantages=normalize_advantages(batch.advantages))
        backup = (params.flat.copy(), self.opt.t, self.opt.m.copy(), self.opt.v.copy())
        epochs_run = 0
        forward = None
        for _ in range(EPOCHS):
            loss, grad, stats = clipped_surrogate(batch, params, self._grad, forward)
            if not np.isfinite(loss) or not np.isfinite(grad).all():
                log.warning("non-finite loss or gradient: restoring previous parameters")
                return self._roll_back(backup, stats, epochs_run)
            clip_grad_norm(grad, params, self._grad_square)
            self.opt.step(params, grad)
            np.maximum(params.log_std, LOG_STD_MIN, out=params.log_std)
            np.minimum(params.log_std, LOG_STD_MAX, out=params.log_std)
            epochs_run += 1
            if not params.all_finite():
                log.warning("non-finite parameter after step: rolling back update")
                return self._roll_back(backup, stats, epochs_run)
            forward = policy_pass(batch, params)
            stats.kl = float((batch.log_probs_old - forward[2]).sum() / len(batch))
            if stats.kl > self.cfg.kl_stop:
                break
        stats.epochs_run = epochs_run
        return stats

    def _roll_back(self, backup, stats: UpdateStats, epochs_run: int) -> UpdateStats:
        """Write the pre-update parameters and optimizer state back in place."""
        flat, self.opt.t, m, v = backup
        self.params.flat[...] = flat
        self.opt.m[...] = m
        self.opt.v[...] = v
        stats.aborted = True
        stats.epochs_run = epochs_run
        return stats
