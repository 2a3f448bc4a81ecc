"""Gaussian policy and value function: small MLPs with manual backprop.

Everything is float64 and the gradients are exact reverse-mode derivatives,
checked against central finite differences in the test suite. The policy is a
diagonal Gaussian with a state-independent learned log-std; actions are
sampled pre-clip (log-probabilities refer to the unclipped sample) and clamped
to [-1, 1] before they reach the environment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))

CKPT_HEADER = "MFRL-CKPT v1"


def orthogonal(rng: np.random.Generator, n_in: int, n_out: int, gain: float) -> np.ndarray:
    """Scaled semi-orthogonal matrix via QR of a Gaussian draw."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


class Mlp:
    """Fully connected tanh network with linear output and cached backprop."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, sizes: tuple[int, ...], rng: np.random.Generator,
               hidden_gain: float = 1.0, out_gain: float = 0.01) -> "Mlp":
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            gain = out_gain if i == len(sizes) - 2 else hidden_gain
            weights.append(orthogonal(rng, sizes[i], sizes[i + 1], gain))
            biases.append(np.zeros(sizes[i + 1]))
        return cls(weights, biases)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        h = x
        n = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if cache is not None:
                cache.append(h)
            h = h @ w + b
            if i < n - 1:
                h = np.tanh(h)
        return h

    def backward(self, cache: list, grad_out: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (weight grads, bias grads, d(loss)/d(input)).
        """
        n = len(self.weights)
        gw = [None] * n
        gb = [None] * n
        g = grad_out
        for i in range(n - 1, -1, -1):
            h_in = cache[i]
            gw[i] = h_in.T @ g
            gb[i] = g.sum(axis=0)
            g = g @ self.weights[i].T
            if i > 0:
                g = g * (1.0 - cache[i] ** 2)  # cache holds tanh outputs
        return gw, gb, g

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class PolicyParams:
    """All trainable parameters: policy mean net, log-std vector, value net."""

    policy: Mlp
    log_std: np.ndarray
    value: Mlp

    @property
    def action_dim(self) -> int:
        return len(self.log_std)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Named views of every parameter array, in a stable order."""
        out = []
        for i, (w, b) in enumerate(zip(self.policy.weights, self.policy.biases)):
            out.append((f"policy.w{i}", w))
            out.append((f"policy.b{i}", b))
        out.append(("log_std", self.log_std))
        for i, (w, b) in enumerate(zip(self.value.weights, self.value.biases)):
            out.append((f"value.w{i}", w))
            out.append((f"value.b{i}", b))
        return out

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.policy.copy(), self.log_std.copy(), self.value.copy())

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for _, t in self.tensors())


def init_params(rng: np.random.Generator, state_dim: int = 1, action_dim: int = 13,
                hidden: tuple[int, ...] = (64, 64), log_std_init: float = -0.5) -> PolicyParams:
    policy = Mlp.create((state_dim, *hidden, action_dim), rng)
    value = Mlp.create((state_dim, *hidden, 1), rng)
    log_std = np.full(action_dim, float(log_std_init))
    return PolicyParams(policy=policy, log_std=log_std, value=value)


def _as_batch(state) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(state, dtype=float))
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def forward_policy(params: PolicyParams, state):
    """Policy mean and std for one state or a batch of states.

    The [-5, 2] log-std clamp is enforced as a projection inside the update
    step, so stored parameters are already in range here.
    """
    x = _as_batch(state)
    mean = params.policy.forward(x)
    std = np.exp(params.log_std)
    if np.ndim(state) == 0:
        return mean[0], std
    return mean, std


def value(params: PolicyParams, state):
    """Scalar state-value estimate V(s)."""
    v = params.value.forward(_as_batch(state))[:, 0]
    return float(v[0]) if np.ndim(state) == 0 else v


def gaussian_log_prob(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density, batched over the first axis."""
    actions = np.atleast_2d(actions)
    mean = np.atleast_2d(mean)
    std = np.exp(log_std)
    z = (actions - mean) / std
    return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * actions.shape[1] * LOG_2PI


@dataclass
class GaussianAction:
    """A sampled action with its pre-clip log-probability."""

    action: np.ndarray
    log_prob: float
    clipped_action: np.ndarray


def act(params: PolicyParams, state: float, rng: np.random.Generator) -> GaussianAction:
    """Sample a ~ N(mean(s), diag(std^2)); clip only for the environment."""
    mean, std = forward_policy(params, float(state))
    a = mean + std * rng.standard_normal(params.action_dim)
    log_prob = float(gaussian_log_prob(a[None, :], mean[None, :], params.log_std)[0])
    return GaussianAction(action=a, log_prob=log_prob, clipped_action=np.clip(a, -1.0, 1.0))


# ---------------------------------------------------------------------------
# checkpoints: versioned plain text, bit-exact float64 round trip
# ---------------------------------------------------------------------------

def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; repr() gives shortest-round-trip decimals.

    Written atomically: the file is complete or absent, never partial.
    """
    lines = [CKPT_HEADER]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        dims = " ".join(str(d) for d in arr.shape) if arr.ndim else "0"
        lines.append(f"array {name} {dims}")
        lines.extend(repr(float(v)) for v in arr.ravel())
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_arrays(path) -> dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines or lines[0] != CKPT_HEADER:
        raise CheckpointError(f"bad checkpoint header in {path}")
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if not parts or parts[0] != "array" or len(parts) < 3:
            raise CheckpointError(f"malformed declaration at line {i + 1} of {path}")
        name = parts[1]
        try:
            shape = tuple(int(d) for d in parts[2:])
        except ValueError as exc:
            raise CheckpointError(f"bad dimensions at line {i + 1} of {path}: {exc}") from exc
        if min(shape) < 0:
            raise CheckpointError(f"negative dimension at line {i + 1} of {path}")
        count = 1 if shape == (0,) else math.prod(shape)
        i += 1
        if i + count > len(lines):
            raise CheckpointError(f"truncated checkpoint {path}")
        try:
            vals = np.array([float(v) for v in lines[i:i + count]], dtype=float)
        except ValueError as exc:
            raise CheckpointError(f"bad value in {path}: {exc}") from exc
        arrays[name] = vals[0].reshape(()) if shape == (0,) else vals.reshape(shape)
        i += count
    return arrays


def save_checkpoint(path, params: PolicyParams, extras: dict[str, np.ndarray] | None = None) -> None:
    arrays = {name: t for name, t in params.tensors()}
    if extras:
        for k, v in extras.items():
            arrays[f"extra.{k}"] = np.asarray(v, dtype=float)
    save_arrays(path, arrays)


def _mlp_from(arrays: dict[str, np.ndarray], prefix: str) -> Mlp:
    weights, biases = [], []
    i = 0
    while f"{prefix}.w{i}" in arrays:
        weights.append(arrays[f"{prefix}.w{i}"])
        biases.append(arrays[f"{prefix}.b{i}"])
        i += 1
    if not weights:
        raise CheckpointError(f"checkpoint is missing {prefix} network arrays")
    return Mlp(weights, biases)


def load_checkpoint(path):
    """Load (params, extras) from a checkpoint file."""
    arrays = load_arrays(path)
    if "log_std" not in arrays:
        raise CheckpointError(f"checkpoint {path} has no log_std array")
    params = PolicyParams(policy=_mlp_from(arrays, "policy"),
                          log_std=arrays["log_std"],
                          value=_mlp_from(arrays, "value"))
    extras = {k[len("extra."):]: v for k, v in arrays.items() if k.startswith("extra.")}
    return params, extras
